(* Content-addressed store experiment: serve an under-debloated CS1's
   carved-away reads from the chunk server and sweep the server-side
   cache budget.

   Workload: CS1 debloated with a tiny fuzz budget, so most ground-truth
   reads miss locally and travel the store path — manifest-verified
   chunk fetches over the loopback transport, batched per contiguous
   miss run, with the byte-budgeted single-flight cache in front of the
   block store.  The runtime fetches each 4 KiB block it misses into
   once, so each budget runs twice, through two runtimes: the first pass
   warms the server cache and the second shows its hits.  Every read
   must come back correct (checked against the analytic fill); the sweep
   shows the cache hit rate and fetch traffic as the budget grows from
   nothing to comfortably-whole-file.  Results land in
   artifacts/BENCH_store.json. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_container
open Kondo_core
open Kondo_store
open Exp_common

let dst = "/app/data.kh5"

let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

let build_debloated_image p =
  let src = Filename.temp_file "exp_store_src" ".kh5" in
  Datafile.write_for ~path:src p;
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src; dst } ];
      param_space = p.Program.param_space }
  in
  let image = Image.build spec ~fetch:read_file in
  let weak = { Config.default with Config.seed = 1; max_iter = 60; stop_iter = 60 } in
  let debloated, _ = Pipeline.debloat_image ~config:weak p ~image ~dst in
  (src, debloated)

type row = {
  cache_bytes : int;
  pass : int;
  served : int;
  total : int;
  store_fetches : int;
  fetched_blocks : int;
  fetched_chunks : int;
  fetched_bytes : int;
  range_gets : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  hit_rate : float;
  wall_s : float;
}

(* One run over the ground truth: a fresh client and runtime, so a fresh
   block overlay, as a second [kondo run] would have.  The server cache
   counts are this pass's own. *)
let run_pass p image server ~cache_bytes ~pass =
  let client = Client.connect (Transport.loopback ~handle:(Server.handle server)) in
  let dir = Filename.temp_file "exp_store_rt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rt = Runtime.boot ~store:(Source.of_client ~image client) ~image ~dir () in
  let srv0 = Cache.stats (Server.cache server) in
  let truth = Program.ground_truth p in
  let served = ref 0 and total = ref 0 in
  let t0 = now () in
  Index_set.iter truth (fun idx ->
      incr total;
      match Runtime.try_read_element rt ~dst ~dataset:p.Program.dataset idx with
      | Ok v ->
        if abs_float (v -. Datafile.fill idx) > 1e-9 then
          failwith "exp_store: store served a wrong value";
        incr served
      | Error exn -> raise exn);
  let wall_s = now () -. t0 in
  let s = Runtime.stats rt and fetched_blocks = Runtime.fetched_blocks rt in
  let cs = Client.stats client in
  let srv = Cache.stats (Server.cache server) in
  Runtime.shutdown rt;
  Client.close client;
  let hits = srv.Cache.hits - srv0.Cache.hits and misses = srv.Cache.misses - srv0.Cache.misses in
  { cache_bytes;
    pass;
    served = !served;
    total = !total;
    store_fetches = s.Runtime.store_fetches;
    fetched_blocks;
    fetched_chunks = cs.Client.fetched_chunks;
    fetched_bytes = cs.Client.fetched_bytes;
    range_gets = cs.Client.range_gets;
    cache_hits = hits;
    cache_misses = misses;
    cache_evictions = srv.Cache.evictions - srv0.Cache.evictions;
    hit_rate = (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
    wall_s }

let sweep_rows p image ~src ~cache_bytes =
  let server = Server.create ~cache_bytes ~store:(Block_store.create ()) () in
  ignore (Server.add_kh5 server ~name:(Filename.basename src) src);
  List.map (fun pass -> run_pass p image server ~cache_bytes ~pass) [ 1; 2 ]

let json_path () =
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Filename.concat dir "BENCH_store.json"

let run () =
  header "store" "Content-addressed store: cache budget sweep over an under-debloated CS1";
  let p = Stencils.cs ~n:128 1 in
  let budgets = [ 0; 16 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024 ] in
  let (src, rows), phase_timings =
    with_phases (fun () ->
        let src, image = phase "build_debloated_image" (fun () -> build_debloated_image p) in
        ( src,
          phase "cache_budget_sweep" (fun () ->
              List.concat_map (fun b -> sweep_rows p image ~src ~cache_bytes:b) budgets) ))
  in
  Printf.printf "  %-12s %4s %8s %8s %8s %8s %9s %9s %9s %7s\n" "cache" "pass" "served"
    "fetches" "blocks" "chunks" "hits" "evicts" "hit-rate" "wall";
  List.iter
    (fun r ->
      Printf.printf "  %9d B %4d %8d %8d %8d %8d %9d %9d %8.1f%% %6.2fs\n" r.cache_bytes r.pass
        r.served r.store_fetches r.fetched_blocks r.fetched_chunks r.cache_hits r.cache_evictions
        (100.0 *. r.hit_rate) r.wall_s)
    rows;
  (* the store contract: every ground-truth read is served correctly at
     every cache budget, and a whole-file budget re-fetches nothing *)
  List.iter
    (fun r ->
      if r.served <> r.total then
        failwith
          (Printf.sprintf "exp_store: served %d of %d at budget %d" r.served r.total
             r.cache_bytes))
    rows;
  let open Report.Json in
  let doc =
    Obj
      [ ("experiment", String "exp_store");
        ("program", String p.Program.name);
        ("truth_reads", Int (List.hd rows).total);
        ( "note",
          String
            "CS1 under-debloated (60-test budget); carved reads served from the chunk \
             store over loopback, each 4 KiB block fetched once per runtime; server-side \
             LRU cache budget swept, two runtimes (passes) per budget so the second \
             pass shows the server cache; every row must serve 100% of ground-truth \
             reads with digest-verified chunks" );
        ( "rows",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("cache_bytes", Int r.cache_bytes);
                     ("pass", Int r.pass);
                     ("served", Int r.served);
                     ("total", Int r.total);
                     ("store_fetches", Int r.store_fetches);
                     ("fetched_blocks", Int r.fetched_blocks);
                     ("fetched_chunks", Int r.fetched_chunks);
                     ("fetched_bytes", Int r.fetched_bytes);
                     ("range_gets", Int r.range_gets);
                     ("cache_hits", Int r.cache_hits);
                     ("cache_misses", Int r.cache_misses);
                     ("cache_evictions", Int r.cache_evictions);
                     ("cache_hit_rate", Float r.hit_rate);
                     ("wall_s", Float r.wall_s) ])
               rows) );
        ("phase_timings", phase_timings) ]
  in
  let path = json_path () in
  let oc = open_out path in
  output_string oc (Report.Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  Sys.remove src
