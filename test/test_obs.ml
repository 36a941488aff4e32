(* Tests for the observability substrate: the metrics registry (golden
   exposition, get-or-create semantics, domain-safety), the virtual
   clock, the span tracer (golden Chrome JSON and text tree), the STATS
   protocol op, and the regression that instrumentation never changes
   debloated outputs. *)

open Kondo_obs
open Kondo_workload
open Kondo_core

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* ---- Clock ---- *)

let test_clock_virtual_deterministic () =
  let mk () = Clock.virtual_ ~start:10.0 ~step:0.5 () in
  let a = mk () and b = mk () in
  let seq c = List.init 5 (fun _ -> Clock.now c) in
  Alcotest.(check (list (float 0.0))) "same sequence" (seq a) (seq b);
  Alcotest.(check (float 0.0)) "starts at start" 10.0 (List.hd (seq (mk ())));
  let c = mk () in
  Clock.advance c 100.0;
  Alcotest.(check (float 0.0)) "advance adds" 110.0 (Clock.now c);
  Alcotest.(check bool) "virtual is virtual" true (Clock.is_virtual c);
  Alcotest.(check bool) "real is not" false (Clock.is_virtual Clock.real);
  (* real clock: advance is a no-op, now is sane *)
  Clock.advance Clock.real 1e9;
  Alcotest.(check bool) "real now positive" true (Clock.now Clock.real > 0.0);
  Alcotest.check_raises "negative step rejected"
    (Invalid_argument "Clock.virtual_: negative step") (fun () ->
      ignore (Clock.virtual_ ~step:(-1.0) ()));
  Alcotest.check_raises "negative advance rejected"
    (Invalid_argument "Clock.advance: negative delta") (fun () ->
      Clock.advance (mk ()) (-1.0))

(* ---- Registry ---- *)

let test_registry_golden_exposition () =
  let r = Registry.create () in
  let c = Registry.counter ~help:"Things counted" r "t_things_total" in
  Registry.inc ~by:3 c;
  let g = Registry.gauge ~help:"A level" r "t_level" in
  Registry.set_gauge g 2.5;
  let h = Registry.histogram ~help:"Sizes" ~buckets:[| 1.0; 2.0; 4.0 |] r "t_sizes" in
  List.iter (Registry.observe h) [ 0.5; 1.5; 8.0 ];
  let expected =
    "# HELP t_level A level\n\
     # TYPE t_level gauge\n\
     t_level 2.5\n\
     # HELP t_sizes Sizes\n\
     # TYPE t_sizes histogram\n\
     t_sizes_bucket{le=\"1.0\"} 1\n\
     t_sizes_bucket{le=\"2.0\"} 2\n\
     t_sizes_bucket{le=\"4.0\"} 2\n\
     t_sizes_bucket{le=\"+Inf\"} 3\n\
     t_sizes_sum 10.0\n\
     t_sizes_count 3\n\
     # HELP t_things_total Things counted\n\
     # TYPE t_things_total counter\n\
     t_things_total 3\n"
  in
  Alcotest.(check string) "exposition text" expected (Registry.expose r);
  let expected_json =
    "{\"counters\":{\"t_things_total\":3},\"gauges\":{\"t_level\":2.5},\"histograms\":\
     {\"t_sizes\":{\"buckets\":[{\"le\":\"1.0\",\"count\":1},{\"le\":\"2.0\",\"count\":2},\
     {\"le\":\"4.0\",\"count\":2},{\"le\":\"+Inf\",\"count\":3}],\"sum\":10.0,\"count\":3}}}"
  in
  Alcotest.(check string) "json snapshot" expected_json (Registry.to_json r);
  Registry.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Registry.counter_value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (Registry.histogram_count h)

let test_registry_get_or_create () =
  let r = Registry.create () in
  let a = Registry.counter ~help:"first wins" r "t_shared_total" in
  let b = Registry.counter ~help:"ignored" r "t_shared_total" in
  Registry.inc a;
  Registry.inc ~by:2 b;
  Alcotest.(check int) "both handles hit one counter" 3 (Registry.counter_value a);
  Alcotest.(check bool) "help of first registration wins" true
    (contains (Registry.expose r) "# HELP t_shared_total first wins");
  (match Registry.gauge r "t_shared_total" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "clash names existing kind" true (contains msg "counter"));
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Registry.inc: negative increment") (fun () ->
      Registry.inc ~by:(-1) a);
  Alcotest.check_raises "empty buckets rejected"
    (Invalid_argument "Registry.histogram: no buckets") (fun () ->
      ignore (Registry.histogram ~buckets:[||] r "t_h"));
  Alcotest.check_raises "non-increasing buckets rejected"
    (Invalid_argument "Registry.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Registry.histogram ~buckets:[| 1.0; 1.0 |] r "t_h"))

let qcheck_concurrent_counters =
  QCheck.Test.make ~count:20
    ~name:"Registry: counter/histogram totals exact under 4-domain concurrency"
    QCheck.(int_range 1 400)
    (fun n ->
      let r = Registry.create () in
      let c = Registry.counter r "q_total" in
      let h = Registry.histogram ~buckets:[| 0.5; 1.5 |] r "q_seconds" in
      let worker () =
        for i = 1 to n do
          Registry.inc c;
          Registry.observe h (if i mod 2 = 0 then 1.0 else 2.0)
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains;
      let buckets = Registry.histogram_buckets h in
      let _, total = List.nth buckets (List.length buckets - 1) in
      Registry.counter_value c = 4 * n
      && Registry.histogram_count h = 4 * n
      && total = 4 * n)

(* ---- Trace ---- *)

(* One clock read per begin/instant/end, step 1s (exact in binary
   floating point, unlike 1e-6): timestamps are fully deterministic, so
   the exports are byte-stable golden files. *)
let golden_trace () =
  let clk = Clock.virtual_ ~start:0.0 ~step:1.0 () in
  let tr = Trace.create ~clock:clk () in
  let outer = Trace.begin_span tr "a" in
  Trace.instant tr "mark";
  let inner = Trace.begin_span tr ~args:[ ("k", "v") ] "b" in
  Trace.end_span tr inner;
  Trace.end_span tr outer;
  tr

let test_trace_golden_chrome_json () =
  let tr = golden_trace () in
  Alcotest.(check int) "three events" 3 (Trace.event_count tr);
  let expected =
    "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"kondo\",\"ph\":\"X\",\"ts\":0.0,\"pid\":0,\
     \"tid\":0,\"dur\":4000000.0},{\"name\":\"mark\",\"cat\":\"kondo\",\"ph\":\"i\",\
     \"ts\":1000000.0,\"pid\":0,\"tid\":0,\"s\":\"t\"},{\"name\":\"b\",\"cat\":\"kondo\",\
     \"ph\":\"X\",\"ts\":2000000.0,\"pid\":0,\"tid\":0,\"dur\":1000000.0,\
     \"args\":{\"k\":\"v\"}}]}"
  in
  Alcotest.(check string) "chrome json" expected (Trace.to_chrome_json tr);
  Alcotest.(check (list (triple string (float 1e-9) int))) "span totals"
    [ ("a", 4.0, 1); ("b", 1.0, 1) ] (Trace.span_totals tr)

let test_trace_golden_text_tree () =
  let tr = golden_trace () in
  let expected = "[tid 0]\n  a 4000000.0us\n    @mark\n    b 1000000.0us (k=v)\n" in
  Alcotest.(check string) "text tree" expected (Trace.to_text_tree tr)

let test_trace_span_nesting_order () =
  (* zero-step clock: every event lands at ts 0; the later-recorded span
     (the parent — it ended last) must still precede its children *)
  let clk = Clock.virtual_ () in
  let tr = Trace.create ~clock:clk () in
  Trace.with_span tr "parent" (fun () ->
      Trace.with_span tr "child1" (fun () -> ());
      Trace.with_span tr "child2" (fun () -> ()));
  let json = Trace.to_chrome_json tr in
  let pos name =
    let rec at i =
      if i + String.length name > String.length json then max_int
      else if String.sub json i (String.length name) = name then i
      else at (i + 1)
    in
    at 0
  in
  Alcotest.(check bool) "parent precedes children" true
    (pos "parent" < pos "child1" && pos "parent" < pos "child2");
  (* an exception ends the span with an error attribute and re-raises *)
  (match Trace.with_span tr "boom" (fun () -> failwith "kaboom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "error recorded" true
    (contains (Trace.to_chrome_json tr) "\"error\":\"Failure(\\\"kaboom\\\")\"")

let test_ambient_span () =
  Alcotest.(check bool) "no tracer by default" false (Obs.enabled ());
  Alcotest.(check int) "span without tracer runs bare" 7 (Obs.span "s" (fun () -> 7));
  let tr = Trace.create ~clock:(Clock.virtual_ ~step:1e-6 ()) () in
  Obs.set_tracer (Some tr);
  Fun.protect
    ~finally:(fun () -> Obs.set_tracer None)
    (fun () ->
      let v =
        Obs.span "work"
          ~result_args:(fun v -> [ ("result", string_of_int v) ])
          (fun () ->
            Obs.instant "tick";
            41 + 1)
      in
      Alcotest.(check int) "value returned" 42 v);
  Alcotest.(check bool) "tracer uninstalled" false (Obs.enabled ());
  Alcotest.(check int) "both events recorded" 2 (Trace.event_count tr);
  Alcotest.(check bool) "result args recorded" true
    (contains (Trace.to_chrome_json tr) "\"result\":\"42\"")

(* ---- STATS protocol op ---- *)

let test_scrape_proto_roundtrip () =
  let open Kondo_store in
  (match Proto.decode_request (Proto.encode_request Proto.Scrape) with
  | Ok Proto.Scrape -> ()
  | Ok _ -> Alcotest.fail "scrape decoded as something else"
  | Error e -> Alcotest.fail ("scrape request: " ^ e));
  let text = "# TYPE x counter\nx 1\n" in
  (match Proto.decode_response (Proto.encode_response (Proto.Metrics text)) with
  | Ok (Proto.Metrics t) -> Alcotest.(check string) "payload" text t
  | Ok _ -> Alcotest.fail "metrics decoded as something else"
  | Error e -> Alcotest.fail ("metrics response: " ^ e))

let test_scrape_end_to_end () =
  let open Kondo_store in
  let server = Server.create ~store:(Block_store.create ()) () in
  let client = Client.connect (Transport.loopback ~handle:(Server.handle server)) in
  (match Client.scrape client with
  | Error e -> Alcotest.fail ("scrape failed: " ^ Kondo_faults.Fault.to_string e)
  | Ok text ->
    Alcotest.(check bool) "prometheus format" true (contains text "# TYPE");
    Alcotest.(check bool) "server counters present" true
      (contains text "kondo_store_server_requests_total"));
  Client.close client

(* ---- instrumentation leaves outputs untouched ---- *)

let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  Bytes.to_string b

let test_debloat_identical_under_tracing () =
  let p = Stencils.prl2d ~n:64 () in
  let src = Filename.temp_file "obs_src" ".kh5" in
  let dst_plain = Filename.temp_file "obs_plain" ".kh5" in
  let dst_traced = Filename.temp_file "obs_traced" ".kh5" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ src; dst_plain; dst_traced ])
    (fun () ->
      Datafile.write_for ~path:src p;
      let config =
        { Config.default with Config.seed = 5; max_iter = 150; stop_iter = 150; jobs = 1 }
      in
      ignore (Pipeline.debloat_file ~config p ~src ~dst:dst_plain);
      let tr = Trace.create () in
      Obs.set_tracer (Some tr);
      Fun.protect
        ~finally:(fun () -> Obs.set_tracer None)
        (fun () ->
          ignore
            (Pipeline.debloat_file
               ~config:(Config.with_jobs config 2)
               p ~src ~dst:dst_traced));
      Alcotest.(check bool) "spans were recorded" true (Trace.event_count tr > 0);
      let json = Trace.to_chrome_json tr in
      List.iter
        (fun name ->
          Alcotest.(check bool) ("span " ^ name) true
            (contains json ("\"name\":\"" ^ name ^ "\"")))
        [ "pipeline.debloat_file"; "pipeline.approximate"; "carve.points";
          "pipeline.rasterize"; "pipeline.keep_intervals"; "pipeline.write" ];
      Alcotest.(check bool) "debloated outputs byte-identical" true
        (String.equal (read_file dst_plain) (read_file dst_traced)))

let test_fuzz_trace_json_deterministic () =
  let p = Stencils.prl2d ~n:64 () in
  let config = { Config.default with Config.seed = 3; max_iter = 80; stop_iter = 80 } in
  let j1 = Report.fuzz_trace_json (Schedule.run ~config p) in
  let j2 = Report.fuzz_trace_json (Schedule.run ~config p) in
  Alcotest.(check string) "byte-stable for a fixed seed" j1 j2;
  Alcotest.(check bool) "chrome trace shape" true
    (contains j1 "{\"traceEvents\":[" && contains j1 "\"ph\":\"X\"");
  Alcotest.(check bool) "categorized outcomes" true
    (contains j1 "\"cat\":\"useful\"" || contains j1 "\"cat\":\"non-useful\"")

let test_schedule_counters_flow () =
  let before =
    Registry.counter_value (Registry.counter Registry.default "kondo_schedule_rounds_total")
  in
  let p = Stencils.prl2d ~n:64 () in
  let config = { Config.default with Config.seed = 2; max_iter = 60; stop_iter = 60 } in
  let r = Schedule.run ~config p in
  let value name = Registry.counter_value (Registry.counter Registry.default name) in
  Alcotest.(check int) "one round recorded"
    (before + 1)
    (value "kondo_schedule_rounds_total");
  Alcotest.(check bool) "evaluations mirrored" true
    (value "kondo_schedule_evaluations_total" >= r.Schedule.evaluations)

let suite =
  ( "obs",
    [ Alcotest.test_case "virtual clock is deterministic" `Quick
        test_clock_virtual_deterministic;
      Alcotest.test_case "registry golden exposition and json" `Quick
        test_registry_golden_exposition;
      Alcotest.test_case "registry get-or-create and validation" `Quick
        test_registry_get_or_create;
      QCheck_alcotest.to_alcotest qcheck_concurrent_counters;
      Alcotest.test_case "trace golden chrome json" `Quick test_trace_golden_chrome_json;
      Alcotest.test_case "trace golden text tree" `Quick test_trace_golden_text_tree;
      Alcotest.test_case "trace span nesting and errors" `Quick
        test_trace_span_nesting_order;
      Alcotest.test_case "ambient span on/off" `Quick test_ambient_span;
      Alcotest.test_case "STATS op roundtrips" `Quick test_scrape_proto_roundtrip;
      Alcotest.test_case "STATS op end to end" `Quick test_scrape_end_to_end;
      Alcotest.test_case "tracing leaves debloated output byte-identical" `Quick
        test_debloat_identical_under_tracing;
      Alcotest.test_case "fuzz trace export is deterministic" `Quick
        test_fuzz_trace_json_deterministic;
      Alcotest.test_case "schedule counters flow into the registry" `Quick
        test_schedule_counters_flow ] )
