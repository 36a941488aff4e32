(* Integration tests: the full Alice-and-Bob container story of §I-II —
   spec, image, Kondo debloating, transfer accounting, user-side runtime
   with the data-missing exception and remote fallback, plus lineage from
   audited execution. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_audit
open Kondo_container
open Kondo_workload
open Kondo_core

let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

let mkdtemp prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let config = { Config.default with Config.max_iter = 500; stop_iter = 200; seed = 21 }

(* Alice builds a container for the RDC program. *)
let alice_builds () =
  let p = Stencils.rdc2d ~n:32 () in
  let src = Filename.temp_file "kondo_alice" ".kh5" in
  Datafile.write_for ~path:src p;
  let spec =
    { Spec.empty with
      Spec.base = "ubuntu:20.04";
      env_deps = [ "apt-get install -y libhdf5-dev" ];
      data_deps = [ { Spec.src; dst = "/app/data.kh5" } ];
      param_space = p.Program.param_space;
      entrypoint = Some "/app/rdc" }
  in
  let image = Image.build spec ~fetch:(fun path -> read_file path) in
  (p, src, image)

let test_full_story () =
  let p, src, image = alice_builds () in
  (* Kondo debloats the data layer *)
  let debloated, report = Pipeline.debloat_image ~config p ~image ~dst:"/app/data.kh5" in
  Alcotest.(check bool) "data shrank" true (Image.data_size debloated < Image.data_size image);
  (* Bob runs the container with parameters Kondo observed: all reads work *)
  let dir = mkdtemp "kondo_bob" in
  let rt = Runtime.boot ~image:debloated ~dir () in
  let observed =
    List.filter_map
      (fun (o : Schedule.outcome) -> if o.Schedule.useful then Some o.Schedule.params else None)
      report.Pipeline.fuzz.Schedule.trace
  in
  Alcotest.(check bool) "some useful params observed" true (observed <> []);
  List.iteri
    (fun i v ->
      if i < 20 then
        List.iter
          (fun slab ->
            Hyperslab.iter ~clip:p.Program.shape slab (fun idx ->
                let value = Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset idx in
                Alcotest.(check (float 1e-9)) "original data" (Datafile.fill idx) value))
          (p.Program.plan v))
    observed;
  Alcotest.(check int) "no misses on supported params" 0 (Runtime.stats rt).Runtime.misses;
  Runtime.shutdown rt;
  Sys.remove src

let test_unsupported_param_raises_then_remote () =
  let p, src, image = alice_builds () in
  (* debloat with a crippled schedule so misses are likely *)
  let weak = { config with Config.max_iter = 6; stop_iter = 6; n_init = 2 } in
  let debloated, _ = Pipeline.debloat_image ~config:weak p ~image ~dst:"/app/data.kh5" in
  let dir = mkdtemp "kondo_bob2" in
  (* find an index the debloated file lacks *)
  let truth = Program.ground_truth p in
  let local = Runtime.boot ~image:debloated ~dir () in
  let missing = ref None in
  (try
     Index_set.iter truth (fun idx ->
         try
           ignore (Kondo_h5.File.read_element (Runtime.file local ~dst:"/app/data.kh5") p.Program.dataset idx)
         with Kondo_h5.File.Data_missing _ ->
           missing := Some (Array.copy idx);
           raise Exit)
   with Exit -> ());
  Runtime.shutdown local;
  match !missing with
  | None -> () (* weak schedule still covered everything: nothing to check *)
  | Some idx ->
    let rt = Runtime.boot ~image:debloated ~dir () in
    (try
       ignore (Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset idx);
       Alcotest.fail "expected Data_missing"
     with Kondo_h5.File.Data_missing _ -> ());
    Runtime.shutdown rt;
    (* §VI: the runtime can pull missing offsets from a remote server *)
    let client, store =
      match Kondo_store.Source.of_image debloated with
      | Ok r -> r
      | Error e -> Alcotest.fail e
    in
    let rt = Runtime.boot ~store ~image:debloated ~dir () in
    let v = Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset idx in
    Alcotest.(check (float 1e-9)) "remote fetch returns original" (Datafile.fill idx) v;
    Runtime.shutdown rt;
    Kondo_store.Client.close client;
    Sys.remove src

let test_lineage_of_audited_container_run () =
  let p, src, image = alice_builds () in
  let dir = mkdtemp "kondo_lin" in
  let tracer = Tracer.create () in
  let rt = Runtime.boot ~tracer ~image ~dir () in
  ignore
    (Program.run_io p (Runtime.file rt ~dst:"/app/data.kh5") [| 6.0; 6.0 |]);
  Runtime.shutdown rt;
  let g = Kondo_provenance.Lineage.of_tracer tracer in
  (* coarse lineage sees the materialized data file *)
  let files = Kondo_provenance.Lineage.files_used_by g ~pid:1 in
  Alcotest.(check int) "one file used" 1 (List.length files);
  (* fine lineage has non-empty byte ranges *)
  let ranges = Kondo_provenance.Lineage.ranges_used_any g ~path:(List.hd files) in
  Alcotest.(check bool) "offset-level ranges" true (Interval_set.total_length ranges > 0);
  Sys.remove src

let test_debloat_keeps_recall_on_fresh_params () =
  (* missed-access rate on the whole parameter space stays small
     (§V-D1: 0.0-0.8% in the paper) *)
  let p = Stencils.ldc2d ~n:32 () in
  let r = Pipeline.evaluate ~config p in
  let rate = Metrics.missed_valuation_rate p ~approx:r.Pipeline.approx in
  Alcotest.(check bool) (Printf.sprintf "missed rate %.4f < 0.05" rate) true (rate < 0.05)

let test_audit_overhead_positive_but_bounded () =
  (* reading through the tracer costs something but not orders of
     magnitude (§V-D6 reports ~31%) *)
  let p = Stencils.prl2d ~n:64 () in
  let path = Filename.temp_file "kondo_ovh" ".kh5" in
  Datafile.write_for ~path p;
  let params = [| 12.0; 14.0 |] in
  let time_run tracer =
    let f = Kondo_h5.File.open_file ?tracer path in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 20 do
      ignore (Program.run_io p f params)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Kondo_h5.File.close f;
    dt
  in
  let plain = time_run None in
  let audited = time_run (Some (Tracer.create ())) in
  Alcotest.(check bool) "audit not free but < 20x" true (audited > 0.0 && audited < plain *. 20.0)

let suite =
  ( "integration",
    [ Alcotest.test_case "full Alice-and-Bob story" `Quick test_full_story;
      Alcotest.test_case "unsupported param: exception then remote fetch" `Quick
        test_unsupported_param_raises_then_remote;
      Alcotest.test_case "lineage of audited container run" `Quick
        test_lineage_of_audited_container_run;
      Alcotest.test_case "missed-access rate small (§V-D1)" `Quick
        test_debloat_keeps_recall_on_fresh_params;
      Alcotest.test_case "audit overhead bounded (§V-D6)" `Quick
        test_audit_overhead_positive_but_bounded ] )
