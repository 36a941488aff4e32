(* Tests for the extension subsystems: hull H-representations and
   disjunctive invariants (§VII), the persistent event log (§V), and
   multi-dataset debloating (footnote 1). *)

open Kondo_dataarray
open Kondo_geometry
open Kondo_audit
open Kondo_workload
open Kondo_core

(* ---------------- Hull halfspaces ---------------- *)

let test_halfspaces_square () =
  let h = Hull.of_int_points [ [| 0; 0 |]; [| 4; 0 |]; [| 4; 4 |]; [| 0; 4 |] ] in
  let cs = Hull.halfspaces h in
  Alcotest.(check int) "four edges" 4 (List.length cs);
  Alcotest.(check bool) "interior" true (Hull.satisfies_halfspaces cs [| 2.0; 2.0 |]);
  Alcotest.(check bool) "edge" true (Hull.satisfies_halfspaces cs [| 4.0; 2.0 |]);
  Alcotest.(check bool) "outside" false (Hull.satisfies_halfspaces cs [| 5.0; 2.0 |])

let test_halfspaces_point_segment () =
  let pt = Hull.of_int_points [ [| 3; 4 |] ] in
  Alcotest.(check bool) "point itself" true
    (Hull.satisfies_halfspaces (Hull.halfspaces pt) [| 3.0; 4.0 |]);
  Alcotest.(check bool) "point other" false
    (Hull.satisfies_halfspaces (Hull.halfspaces pt) [| 3.0; 5.0 |]);
  let seg = Hull.of_int_points [ [| 0; 0 |]; [| 4; 2 |] ] in
  let cs = Hull.halfspaces seg in
  Alcotest.(check bool) "midpoint" true (Hull.satisfies_halfspaces cs [| 2.0; 1.0 |]);
  Alcotest.(check bool) "off line" false (Hull.satisfies_halfspaces cs [| 2.0; 2.0 |]);
  Alcotest.(check bool) "beyond extent" false (Hull.satisfies_halfspaces cs [| 8.0; 4.0 |])

let test_halfspaces_3d_and_flat () =
  let cube =
    Hull.of_int_points
      [ [| 0; 0; 0 |]; [| 3; 0; 0 |]; [| 0; 3; 0 |]; [| 0; 0; 3 |]; [| 3; 3; 0 |]; [| 3; 0; 3 |];
        [| 0; 3; 3 |]; [| 3; 3; 3 |] ]
  in
  let cs = Hull.halfspaces cube in
  Alcotest.(check bool) "cube interior" true (Hull.satisfies_halfspaces cs [| 1.0; 2.0; 1.0 |]);
  Alcotest.(check bool) "cube outside" false (Hull.satisfies_halfspaces cs [| 1.0; 2.0; 4.0 |]);
  let flat = Hull.of_int_points [ [| 0; 0; 2 |]; [| 4; 0; 2 |]; [| 0; 4; 2 |] ] in
  let cs = Hull.halfspaces flat in
  Alcotest.(check bool) "in plane, in polygon" true
    (Hull.satisfies_halfspaces cs [| 1.0; 1.0; 2.0 |]);
  Alcotest.(check bool) "off plane" false (Hull.satisfies_halfspaces cs [| 1.0; 1.0; 3.0 |])

let qcheck_halfspaces_agree_with_contains =
  QCheck.Test.make ~name:"halfspace conjunction agrees with Hull.contains" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 15) (pair (int_range 0 12) (int_range 0 12)))
        (pair (int_range (-2) 14) (int_range (-2) 14)))
    (fun (pts, (qx, qy)) ->
      QCheck.assume (pts <> []);
      let h = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      let q = [| float_of_int qx; float_of_int qy |] in
      Hull.satisfies_halfspaces (Hull.halfspaces h) q = Hull.contains h q)

(* ---------------- Invariant ---------------- *)

let test_invariant_disjunction () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 2; 0 |]; [| 0; 2 |]; [| 2; 2 |] ] in
  let b = Hull.of_int_points [ [| 10; 10 |]; [| 12; 10 |]; [| 10; 12 |]; [| 12; 12 |] ] in
  let inv = Invariant.of_hulls [ a; b ] in
  Alcotest.(check bool) "in first clause" true (Invariant.satisfies_int inv [| 1; 1 |]);
  Alcotest.(check bool) "in second clause" true (Invariant.satisfies_int inv [| 11; 11 |]);
  Alcotest.(check bool) "in the gap" false (Invariant.satisfies_int inv [| 6; 6 |]);
  Alcotest.(check int) "two clauses" 2 (List.length (Invariant.clauses inv));
  Alcotest.(check bool) "constraints counted" true (Invariant.constraint_count inv >= 8)

let test_invariant_matches_carve () =
  let p = Stencils.ldc2d ~n:32 () in
  let config = { Config.default with Config.max_iter = 300; stop_iter = 300 } in
  let r = Pipeline.approximate ~config p in
  let carve = Carver.carve ~config r.Pipeline.fuzz.Schedule.indices in
  let inv = Invariant.of_carve carve in
  (* the invariant holds exactly on the rasterized hull set *)
  let raster = Carver.rasterize p.Program.shape carve.Carver.hulls in
  let mismatches = ref 0 in
  Shape.iter p.Program.shape (fun idx ->
      if Invariant.satisfies_int inv idx <> Index_set.mem raster idx then incr mismatches);
  Alcotest.(check int) "invariant = hull membership" 0 !mismatches

let test_invariant_to_string () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 4; 0 |]; [| 0; 4 |] ] in
  let s = Invariant.to_string (Invariant.of_hulls [ a ]) in
  let contains sub =
    let ls = String.length sub and l = String.length s in
    let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "uses i and j" true (contains "i" && contains "j");
  Alcotest.(check bool) "conjunctions rendered" true (contains "/\\");
  Alcotest.(check string) "empty invariant" "false" (Invariant.to_string (Invariant.of_hulls []))

(* ---------------- Event log ---------------- *)

let sample_events =
  [ { Event.seq = 0; pid = 1; path = "/data/a.kh5"; op = Event.Open; offset = 0; size = 0 };
    { Event.seq = 1; pid = 1; path = "/data/a.kh5"; op = Event.Read; offset = 40; size = 16 };
    { Event.seq = 2; pid = 2; path = "/data/b.kh5"; op = Event.Read; offset = 1 lsl 40; size = 4096 };
    { Event.seq = 3; pid = 1; path = "/data/a.kh5"; op = Event.Close; offset = 0; size = 0 } ]

let test_event_log_roundtrip () =
  let path = Filename.temp_file "kondo_log" ".klog" in
  Event_log.save path sample_events;
  let loaded = Event_log.load path in
  Alcotest.(check int) "count" (List.length sample_events) (List.length loaded);
  List.iter2
    (fun (a : Event.t) (b : Event.t) ->
      Alcotest.(check string) "event" (Event.to_string a) (Event.to_string b))
    sample_events loaded;
  Sys.remove path

let test_event_log_replay () =
  let path = Filename.temp_file "kondo_log" ".klog" in
  Event_log.save path sample_events;
  let t = Event_log.replay path in
  Alcotest.(check int) "events replayed" 4 (Tracer.event_count t);
  Alcotest.(check int) "index rebuilt" 16
    (Kondo_interval.Interval_set.total_length (Tracer.offsets t ~pid:1 ~path:"/data/a.kh5"));
  Sys.remove path

let test_event_log_streaming_writer () =
  let path = Filename.temp_file "kondo_log" ".klog" in
  let w = Event_log.create_writer path in
  List.iter (Event_log.log w) sample_events;
  Event_log.close_writer w;
  Alcotest.(check int) "streamed = loaded" 4 (List.length (Event_log.load path));
  Sys.remove path

let test_event_log_bad_magic () =
  let path = Filename.temp_file "kondo_log" ".klog" in
  let oc = open_out_bin path in
  output_string oc "NOTALOG";
  close_out oc;
  (try
     ignore (Event_log.load path);
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  (* a v1 log, the unframed format no writer has produced since v2 *)
  let oc = open_out_bin path in
  output_string oc "KLOG\x01\x00\x00\x06/a.kh5\x01\x00\x07\x00\x00\x00\x00";
  close_out oc;
  Alcotest.check_raises "v1 is bad magic" (Failure "Event_log: bad magic") (fun () ->
      ignore (Event_log.load path));
  Sys.remove path

let qcheck_event_log_roundtrip =
  QCheck.Test.make ~name:"event log roundtrips arbitrary events" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 50)
        (quad (int_range 0 1000) (int_range 0 5) (int_range 0 1_000_000) (int_range 0 65536)))
    (fun raw ->
      let events =
        List.mapi
          (fun i (seq, pid, offset, size) ->
            { Event.seq;
              pid;
              path = Printf.sprintf "/p/%d" (pid mod 3);
              op = (if i mod 2 = 0 then Event.Read else Event.Write);
              offset;
              size })
          raw
      in
      let path = Filename.temp_file "kondo_qlog" ".klog" in
      Event_log.save path events;
      let loaded = Event_log.load path in
      Sys.remove path;
      loaded = events)

(* ---------------- Report / JSON ---------------- *)

let test_json_serialization () =
  let open Report.Json in
  Alcotest.(check string) "scalar" "42" (to_string (Int 42));
  Alcotest.(check string) "escaping" {s|"a\"b\\c\nd"|s} (to_string (String "a\"b\\c\nd"));
  Alcotest.(check string) "empty obj" "{}" (to_string (Obj []));
  Alcotest.(check string) "list" {s|[1,true,null]|s} (to_string (List [ Int 1; Bool true; Null ]));
  Alcotest.(check string) "nested" {s|{"a":[1.5,"x"]}|s}
    (to_string (Obj [ ("a", List [ Float 1.5; String "x" ]) ]))

let test_pipeline_report_json () =
  let p = Stencils.ldc2d ~n:32 () in
  let config = { Config.default with Config.max_iter = 200; stop_iter = 200 } in
  let r = Pipeline.evaluate ~config p in
  let json = Report.Json.to_string (Report.pipeline_json p r) in
  let contains sub =
    let ls = String.length sub and l = String.length json in
    let rec go i = i + ls <= l && (String.sub json i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "program name present" true (contains {s|"program":"LDC2D"|s});
  Alcotest.(check bool) "accuracy present" true (contains {s|"accuracy"|s});
  Alcotest.(check bool) "carve stats present" true (contains {s|"hulls"|s});
  let text = Report.pipeline_text p r in
  Alcotest.(check bool) "text has accuracy line" true
    (String.length text > 0 && String.split_on_char '\n' text |> List.exists (fun l ->
         String.length l >= 8 && String.sub l 0 8 = "accuracy"))

(* ---------------- Campaign (§VI: more fuzzing over time) ---------------- *)

let test_campaign_accumulates () =
  let p = Stencils.cs ~n:64 3 in
  let config = { Config.default with Config.max_iter = 100; stop_iter = 100 } in
  let c0 = Campaign.fresh p in
  let c1 = Campaign.extend ~config p c0 1 in
  let c3 = Campaign.extend ~config p c1 2 in
  Alcotest.(check int) "rounds counted" 3 (Campaign.rounds c3);
  Alcotest.(check bool) "monotone accumulation" true
    (Index_set.subset (Campaign.observed c1) (Campaign.observed c3));
  Alcotest.(check bool) "more rounds find more" true
    (Index_set.cardinal (Campaign.observed c3) >= Index_set.cardinal (Campaign.observed c1))

let test_campaign_recall_improves () =
  let p = Stencils.cs ~n:64 3 in
  let truth = Program.ground_truth p in
  let config = { Config.default with Config.max_iter = 80; stop_iter = 80 } in
  let c1 = Campaign.extend ~config p (Campaign.fresh p) 1 in
  let c5 = Campaign.extend ~config p c1 4 in
  let r1 = Metrics.recall ~truth ~approx:(Campaign.carve ~config p c1) in
  let r5 = Metrics.recall ~truth ~approx:(Campaign.carve ~config p c5) in
  Alcotest.(check bool) (Printf.sprintf "recall %.3f -> %.3f" r1 r5) true (r5 >= r1)

let test_campaign_save_load () =
  let p = Stencils.ldc2d ~n:32 () in
  let config = { Config.default with Config.max_iter = 120; stop_iter = 120 } in
  let c = Campaign.extend ~config p (Campaign.fresh p) 2 in
  let path = Filename.temp_file "kondo_campaign" ".kcam" in
  Campaign.save c path;
  let loaded = Campaign.load p path in
  Alcotest.(check int) "rounds" (Campaign.rounds c) (Campaign.rounds loaded);
  Alcotest.(check bool) "observed identical" true
    (Index_set.equal (Campaign.observed c) (Campaign.observed loaded));
  (* wrong program is rejected *)
  (try
     ignore (Campaign.load (Stencils.rdc2d ~n:32 ()) path);
     Alcotest.fail "expected mismatch rejection"
   with Invalid_argument _ -> ());
  Sys.remove path

let test_campaign_load_error_names_file () =
  let p = Stencils.ldc2d ~n:32 () in
  let contains hay needle =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let expect_named path =
    match Campaign.load p path with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names the file: " ^ msg) true (contains msg path);
      Alcotest.(check bool) ("message names the program: " ^ msg) true
        (contains msg p.Program.name)
  in
  (* malformed: not a campaign file at all *)
  let garbage = Filename.temp_file "kondo_campaign_bad" ".kcam" in
  let oc = open_out_bin garbage in
  output_string oc "definitely not a campaign";
  close_out oc;
  expect_named garbage;
  (* a v1 state file, which nothing has written since v2 *)
  let oc = open_out_bin garbage in
  output_string oc "KCAM\x01\x00\x00\x00\x00";
  close_out oc;
  (match Campaign.load p garbage with
  | _ -> Alcotest.fail "v1 loaded"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("v1 is bad magic: " ^ msg) true (contains msg "bad magic"));
  Sys.remove garbage;
  (* well-formed but for a different program *)
  let other = Filename.temp_file "kondo_campaign_other" ".kcam" in
  let config = { Config.default with Config.max_iter = 30; stop_iter = 30 } in
  let q = Stencils.rdc2d ~n:32 () in
  Campaign.save (Campaign.extend ~config q (Campaign.fresh q) 1) other;
  expect_named other;
  Sys.remove other

(* ---------------- Multi-dataset debloating ---------------- *)

let test_debloat_file_many () =
  let p1 = Program.with_dataset (Stencils.ldc2d ~n:16 ()) "left" in
  let p2 = Program.with_dataset (Stencils.rdc2d ~n:16 ()) "right" in
  let unused =
    Kondo_h5.Dataset.dense ~name:"never_read" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 8; 8 |]) ()
  in
  let src = Filename.temp_file "kondo_many" ".kh5" in
  let dst = Filename.temp_file "kondo_many_deb" ".kh5" in
  (* file with three datasets, one never read by any program *)
  let mk p = Kondo_h5.Dataset.dense ~name:p.Program.dataset ~dtype:p.Program.dtype ~shape:p.Program.shape () in
  Kondo_h5.Writer.write src [ (mk p1, Datafile.fill); (mk p2, Datafile.fill); (unused, Datafile.fill) ];
  let config = { Config.default with Config.max_iter = 300; stop_iter = 300 } in
  let reports = Pipeline.debloat_file_many ~config [ p1; p2 ] ~src ~dst in
  Alcotest.(check int) "two reports" 2 (List.length reports);
  let d = Kondo_h5.File.open_file dst in
  (* both programs' observed data reads back *)
  List.iter
    (fun (p, name) ->
      let report = List.assoc name reports in
      let checked = ref 0 in
      Index_set.iter report.Pipeline.approx (fun idx ->
          if !checked < 50 then begin
            incr checked;
            Alcotest.(check (float 1e-9)) "value" (Datafile.fill idx)
              (Kondo_h5.File.read_element d p.Program.dataset idx)
          end))
    [ (p1, p1.Program.name); (p2, p2.Program.name) ];
  (* the never-read dataset was dropped to zero bytes *)
  let ds = Kondo_h5.File.find d "never_read" in
  Alcotest.(check int) "unused dataset emptied" 0 (Kondo_h5.Dataset.stored_bytes ds);
  (try
     ignore (Kondo_h5.File.read_element d "never_read" [| 0; 0 |]);
     Alcotest.fail "expected Data_missing"
   with Kondo_h5.File.Data_missing _ -> ());
  Kondo_h5.File.close d;
  Sys.remove src;
  Sys.remove dst

let suite =
  ( "extensions",
    [ Alcotest.test_case "halfspaces: square" `Quick test_halfspaces_square;
      Alcotest.test_case "halfspaces: point and segment" `Quick test_halfspaces_point_segment;
      Alcotest.test_case "halfspaces: 3D and planar" `Quick test_halfspaces_3d_and_flat;
      QCheck_alcotest.to_alcotest qcheck_halfspaces_agree_with_contains;
      Alcotest.test_case "invariant: disjunction" `Quick test_invariant_disjunction;
      Alcotest.test_case "invariant: matches carve" `Quick test_invariant_matches_carve;
      Alcotest.test_case "invariant: rendering" `Quick test_invariant_to_string;
      Alcotest.test_case "event log: roundtrip" `Quick test_event_log_roundtrip;
      Alcotest.test_case "event log: replay into tracer" `Quick test_event_log_replay;
      Alcotest.test_case "event log: streaming writer" `Quick test_event_log_streaming_writer;
      Alcotest.test_case "event log: bad magic" `Quick test_event_log_bad_magic;
      QCheck_alcotest.to_alcotest qcheck_event_log_roundtrip;
      Alcotest.test_case "json serialization" `Quick test_json_serialization;
      Alcotest.test_case "pipeline report json/text" `Quick test_pipeline_report_json;
      Alcotest.test_case "campaign accumulates" `Quick test_campaign_accumulates;
      Alcotest.test_case "campaign recall improves" `Quick test_campaign_recall_improves;
      Alcotest.test_case "campaign save/load" `Quick test_campaign_save_load;
      Alcotest.test_case "campaign load errors name file and program" `Quick
        test_campaign_load_error_names_file;
      Alcotest.test_case "multi-dataset debloat (footnote 1)" `Quick test_debloat_file_many ] )
