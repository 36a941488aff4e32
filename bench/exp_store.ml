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
   nothing to comfortably-whole-file.

   A second section, [chunk_path], prices one request on the chunk
   path: a BATCH of 8 chunks (server cache warm, and cold), a GET and a
   PUT of one 4 KiB chunk, each as microseconds and bytes allocated per
   operation, over the loopback transport and over a Unix socket served
   by [Server.serve_unix] in a second domain.  Bytes are counted in the
   calling domain: client and server over loopback, the client alone
   over the socket.  Results land in artifacts/BENCH_store.json. *)

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
  let mounts = Image.materialize image ~dir in
  let rt = Runtime.of_files ~store:(Source.of_client ~mounts client) mounts in
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

type op_cost = {
  transport : string;
  op : string;
  ops : int;
  us_per_op : float;
  bytes_per_op : float;
}

(* Time operations [0 .. n-1] one by one ([before] runs untimed ahead
   of each), then count the bytes that operations [n .. n+counted-1] allocate,
   each started on an empty minor heap so no collection inside the
   count subtracts promotions. *)
let counted = 50

let cost ~transport ~op ?(before = ignore) n f =
  let busy = ref 0.0 in
  for i = 0 to n - 1 do
    before i;
    let t0 = now () in
    ignore (Sys.opaque_identity (f i));
    busy := !busy +. (now () -. t0)
  done;
  let bytes = ref 0.0 in
  for i = n to n + counted - 1 do
    before i;
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f i));
    bytes := !bytes +. (Gc.allocated_bytes () -. b0)
  done;
  { transport;
    op;
    ops = n;
    us_per_op = !busy /. float_of_int n *. 1e6;
    bytes_per_op = !bytes /. float_of_int counted }

let chunk_path_ops server m ~transport conn =
  let client = Client.connect conn in
  let ok = function Ok v -> v | Error e -> failwith (Kondo_faults.Fault.to_string e) in
  let size = Chunk.default_size in
  let n = 1000 in
  let chunks = Chunk.chunk_count m in
  let batch i = ignore (ok (Client.fetch_chunks client m ~first:(8 * i mod (chunks - 8)) ~count:8)) in
  let get i =
    conn.Transport.send (Proto.encode_request (Proto.Get m.Chunk.ids.(i mod chunks)));
    match Result.bind (conn.Transport.recv ()) Proto.decode_response with
    | Ok (Proto.Blob _) -> ()
    | _ -> failwith "exp_store: chunk_path GET failed"
  in
  (* distinct payloads: every PUT stores a new chunk *)
  let payloads =
    Array.init (n + counted) (fun i ->
        let b = Bytes.init size (fun k -> Char.chr (((i * 7919) + k) land 0xFF)) in
        Bytes.set_int32_le b 0 (Int32.of_int i);
        b)
  in
  let put i = ignore (ok (Client.put client payloads.(i))) in
  let cache = Server.cache server in
  for i = 0 to chunks / 8 do
    batch i
  done;
  let rows =
    [ cost ~transport ~op:"batch8_warm" n batch;
      cost ~transport ~op:"batch8_cold" ~before:(fun _ -> Cache.clear cache) n batch;
      cost ~transport ~op:"get" n get;
      cost ~transport ~op:"put" n put ]
  in
  Array.iter (fun p -> ignore (Block_store.remove (Server.store server) (Chunk.digest p))) payloads;
  Client.close client;
  rows

(* Serve [server] on a Unix socket in a second domain for [f]; stop the
   accept loop by flipping the flag and waking it with a connection. *)
let with_unix_server server f =
  let dir = Filename.temp_file "exp_store_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "store.sock" in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.serve_unix server ~socket
          ~on_ready:(fun () -> Atomic.set ready true)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* the loop may already have seen the flag and closed the socket *)
      (try (Transport.unix_connect socket).Transport.close () with Unix.Unix_error _ -> ());
      Domain.join srv;
      Unix.rmdir dir)
    (fun () -> f socket)

let chunk_path () =
  let server = Server.create ~store:(Block_store.create ()) () in
  let m =
    Server.add_blob server ~name:"chunk_path"
      (Bytes.init (256 * Chunk.default_size) (fun i -> Char.chr (((i * 31) + (i / 4096)) land 0xFF)))
  in
  chunk_path_ops server m ~transport:"loopback" (Transport.loopback ~handle:(Server.handle server))
  @ with_unix_server server (fun socket ->
        chunk_path_ops server m ~transport:"unix" (Transport.unix_connect socket))

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
  let costs = chunk_path () in
  Printf.printf "  %-12s %4s %8s %8s %8s %8s %9s %9s %9s %7s\n" "cache" "pass" "served"
    "fetches" "blocks" "chunks" "hits" "evicts" "hit-rate" "wall";
  List.iter
    (fun r ->
      Printf.printf "  %9d B %4d %8d %8d %8d %8d %9d %9d %8.1f%% %6.2fs\n" r.cache_bytes r.pass
        r.served r.store_fetches r.fetched_blocks r.fetched_chunks r.cache_hits r.cache_evictions
        (100.0 *. r.hit_rate) r.wall_s)
    rows;
  Printf.printf "\n  chunk path, per operation:\n  %-9s %-12s %6s %9s %10s\n" "transport" "op" "ops"
    "us/op" "bytes/op";
  List.iter
    (fun c ->
      Printf.printf "  %-9s %-12s %6d %9.1f %10.0f\n" c.transport c.op c.ops c.us_per_op
        c.bytes_per_op)
    costs;
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
        ( "chunk_path",
          Obj
            [ ( "note",
                String
                  "one request on the chunk path over a 1 MiB blob of 4 KiB chunks and a \
                   1 MiB server cache: a BATCH of 8 chunks with the server cache warm and \
                   cold (cleared, untimed, before each), a GET and a PUT of one chunk; \
                   bytes are those allocated in the calling domain (client and server \
                   over loopback, the client alone over the Unix socket)" );
              ( "rows",
                List
                  (List.map
                     (fun c ->
                       Obj
                         [ ("transport", String c.transport);
                           ("op", String c.op);
                           ("ops", Int c.ops);
                           ("us_per_op", Float c.us_per_op);
                           ("bytes_per_op", Float c.bytes_per_op) ])
                     costs) ) ] );
        ("phase_timings", phase_timings) ]
  in
  let path = json_path () in
  let oc = open_out path in
  output_string oc (Report.Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  Sys.remove src
