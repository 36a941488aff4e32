(* kondo: the command-line front end.

   Subcommands:
     programs   list the registered benchmark programs
     mkdata     write a program's dense KH5 data file
     debloat    fuzz + carve + write the debloated KH5 file
     run        execute a program against a KH5 file (original or debloated)
     report     evaluate Kondo against a program's exact ground truth
     inspect    print a KH5 file's datasets *)

open Cmdliner
open Kondo_dataarray
open Kondo_workload
open Kondo_container
open Kondo_core

let find_program name n m =
  match Suite.by_name ?n ?m name with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown program %S; try `kondo programs`\n" name;
    exit 2

(* A malformed KH5 input is reported with its path. *)
let open_kh5 ?tracer ?pid path =
  try Kondo_h5.File.open_file ?tracer ?pid path
  with Kondo_h5.Binio.Corrupt msg -> raise (Kondo_h5.Binio.Corrupt (path ^ ": " ^ msg))

(* ---- common options ---- *)

let program_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "program" ] ~docv:"NAME" ~doc:"Benchmark program (see $(b,kondo programs)).")

let n_arg =
  Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"2D array dimension (default 128).")

let m_arg =
  Arg.(value & opt (some int) None & info [ "m" ] ~docv:"M" ~doc:"3D array dimension (default 64).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the fuzz schedule.")

let max_iter_arg =
  Arg.(
    value
    & opt int Config.default.Config.max_iter
    & info [ "max-iter" ] ~docv:"ITERS" ~doc:"Maximum fuzz iterations (paper default 2000).")

let jobs_arg =
  Arg.(
    value
    & opt int (Kondo_parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel fan-out (campaign rounds, multi-program \
           debloating, per-cell hulls). Defaults to the hardware domain count; 1 is the \
           sequential legacy path. Results are bit-identical for any value.")

let config_of ?(jobs = 1) seed max_iter =
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  Config.with_jobs { Config.default with Config.seed; max_iter } jobs

(* ---- observability options ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans across the fuzz/carve/runtime/store layers and write them to \
           FILE as Chrome trace_event JSON (open in chrome://tracing or Perfetto). \
           Instrumentation never affects outputs: results are byte-identical with or \
           without this flag.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the process metrics registry (counters, histograms, and every span's \
           kondo_span_seconds series) to FILE in Prometheus text exposition format when \
           the command finishes.")

(* Install the ambient tracer for the duration of [f], then export the
   requested artifacts.  The tracer is only created when --trace was
   given; spans count in the registry either way. *)
let with_obs ~trace ~metrics f =
  let tracer = Option.map (fun _ -> Kondo_obs.Trace.create ()) trace in
  Kondo_obs.Obs.set_tracer tracer;
  Fun.protect
    ~finally:(fun () ->
      Kondo_obs.Obs.set_tracer None;
      (match (trace, tracer) with
      | Some file, Some tr ->
        let oc = open_out file in
        output_string oc (Kondo_obs.Trace.to_chrome_json tr);
        output_char oc '\n';
        close_out oc
      | _ -> ());
      match metrics with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        output_string oc (Kondo_obs.Registry.expose Kondo_obs.Registry.default);
        close_out oc)
    f

(* ---- programs ---- *)

let programs_cmd =
  let run () =
    Printf.printf "%-7s %-8s %-9s %s\n" "name" "dims" "|Theta|" "description";
    List.iter
      (fun name ->
        match Suite.by_name name with
        | Some p ->
          Printf.printf "%-7s %-8s %-9d %s\n" p.Program.name
            (Shape.to_string p.Program.shape) (Program.param_count p) p.Program.description
        | None -> ())
      Suite.names
  in
  Cmd.v (Cmd.info "programs" ~doc:"List the registered benchmark programs.")
    Term.(const run $ const ())

(* ---- mkdata ---- *)

let path_arg idx doc = Arg.(required & pos idx (some string) None & info [] ~docv:"PATH" ~doc)

let mkdata_cmd =
  let run name n m path =
    let p = find_program name n m in
    Datafile.write_for ~path p;
    Printf.printf "wrote %s: %s of %s\n" path
      (Shape.to_string p.Program.shape)
      (Dtype.to_string p.Program.dtype)
  in
  Cmd.v
    (Cmd.info "mkdata" ~doc:"Write a program's dense KH5 data file.")
    Term.(const run $ program_arg $ n_arg $ m_arg $ path_arg 0 "Output KH5 path.")

(* ---- debloat ---- *)

let debloat_cmd =
  let run name n m seed max_iter jobs trace metrics src dst =
    let p = find_program name n m in
    let config = config_of ~jobs seed max_iter in
    let report =
      with_obs ~trace ~metrics (fun () -> Pipeline.debloat_file ~config p ~src ~dst)
    in
    let size path =
      let ic = open_in_bin path in
      let s = in_channel_length ic in
      close_in ic;
      s
    in
    Printf.printf "%s: %d debloat tests, %d hulls, kept %d of %d indices\n" p.Program.name
      report.Pipeline.fuzz.Schedule.evaluations
      (List.length report.Pipeline.carve.Carver.hulls)
      (Index_set.cardinal report.Pipeline.approx)
      (Shape.nelems p.Program.shape);
    Printf.printf "%s (%d KiB) -> %s (%d KiB)\n" src (size src / 1024) dst (size dst / 1024)
  in
  Cmd.v
    (Cmd.info "debloat" ~doc:"Fuzz, carve, and write the debloated KH5 file.")
    Term.(
      const run $ program_arg $ n_arg $ m_arg $ seed_arg $ max_iter_arg $ jobs_arg
      $ trace_arg $ metrics_arg
      $ path_arg 0 "Source (dense) KH5 file."
      $ path_arg 1 "Destination (debloated) KH5 file.")

(* ---- run ---- *)

let params_arg =
  Arg.(
    required
    & opt (some (list float)) None
    & info [ "params" ] ~docv:"V1,V2,..." ~doc:"Parameter value for the run.")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SRC"
        ~doc:
          "Serve carved-away offsets from this dense source file (the \"remote server\" \
           copy of paper SecVI). The file is served chunk by chunk, on demand, by an \
           in-process chunk server and read through the same store client as $(b,--remote-store): retry with \
           capped exponential backoff, a circuit breaker, and digest-verified chunks. \
           Reads the remote cannot serve degrade to structured misses instead of \
           aborting the run.")

let remote_retries_arg =
  Arg.(
    value
    & opt int 3
    & info [ "remote-retries" ] ~docv:"N"
        ~doc:"Maximum retries per store or remote exchange (so N+1 attempts in total).")

let remote_deadline_arg =
  Arg.(
    value
    & opt float 5000.0
    & info [ "remote-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Virtual time budget per store or remote exchange across attempts and backoff \
           delays.")

let fault_plan_arg =
  Arg.(
    value
    & opt string "none"
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault-injection plan for store and remote exchanges (test \
           drives), e.g. seed=7,transient=0.2,timeout=0.05,corrupt=0.1. Keys: seed, \
           transient, timeout, timeout-cost-ms, short, corrupt, permanent; rates are \
           per-call probabilities in [0,1]. The n-th decision at a call site is a pure \
           function of (seed, site, n), so runs reproduce exactly.")

let parse_fault_plan s =
  match Kondo_faults.Fault_plan.of_string s with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "bad --fault-plan: %s\n" msg;
    exit 2

let remote_store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote-store" ] ~docv:"SOCKET"
        ~doc:
          "Serve carved-away offsets from a kondo chunk server listening on this \
           Unix-domain socket (see $(b,kondo serve)). The store is tried ahead of \
           $(b,--remote); fetched chunks are verified against the manifest's content \
           digests and cached client-side. Misses the store cannot serve fall back to \
           $(b,--remote) when it is also set, else degrade.")

let store_name_arg =
  Arg.(
    value
    & opt string ""
    & info [ "store-name" ] ~docv:"NAME"
        ~doc:
          "Name the served file was registered under at the chunk server. Defaults to \
           matching the dataset suffix alone, which suffices when the server serves one \
           file.")

let store_cache_arg =
  Arg.(
    value
    & opt int (256 * 1024)
    & info [ "store-cache-bytes" ] ~docv:"BYTES"
        ~doc:"Client-side chunk cache budget of each store or remote client (default 256 KiB).")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the runtime's statistics — plus the store client's counters \
           (client_*, server_cache_*) when $(b,--remote-store) is set and the remote \
           client's (remote_*) when $(b,--remote) is set — to FILE as a JSON object \
           (feed it to $(b,kondo report --runtime-stats)).")

let read_whole_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

(* Order-sensitive digest of every value the run read, so CI can check a
   store-served run byte-for-byte against a local one. *)
let checksum_empty = Kondo_faults.Fnv.hash_bytes Bytes.empty
let checksum_add acc v = Kondo_faults.Fnv.hash_pair acc (Int64.bits_of_float v)

(* The counters of one store client, as [--stats-json] keys under
   [prefix]. *)
let client_fields prefix cs =
  List.map (fun (k, v) -> (prefix ^ k, v)) (Kondo_store.Client.stats_fields cs)

let print_client label cs =
  let v k = List.assoc k (Kondo_store.Client.stats_fields cs) in
  Printf.printf
    "%s: %d fetched chunks over %d range GETs, %d corrupt, %d retries, %d breaker \
     rejections, %d client cache hits\n"
    label (v "fetched_chunks") (v "range_gets") (v "corrupt_fetches") (v "retries")
    (v "breaker_rejections") (v "cache_hits")

(* Run the program's access plan through the container runtime, which
   reads [path] in place.  With [remote_store] or [src], carved-away
   offsets are served by the chunk store and then by [src], both through
   store clients under the retry/breaker machinery (and any injected
   faults); without either, the first carved-away read ends the run.
   Returns whether no read was missing. *)
let run_with_runtime p v ~path ~src ~remote_store ~store_name ~store_cache ~retries
    ~deadline_ms ~plan ~stats_json =
  let retry =
    { Kondo_faults.Retry.default with
      Kondo_faults.Retry.max_attempts = retries + 1;
      deadline_ms }
  in
  let cache () = Kondo_store.Cache.create ~budget_bytes:store_cache () in
  let dst = "/data" in
  (* A source's view of the mount: its bytes, with [src] as their
     origin.  Only a run with a source reads the file up front. *)
  let image =
    lazy
      (Image.build
         { Spec.empty with
           Spec.base = "scratch";
           data_deps = [ { Spec.src = Option.value src ~default:""; dst } ] }
         ~fetch:(fun _ -> read_whole_file path))
  in
  let remote =
    match src with
    | None -> None
    | Some _ -> (
      match Kondo_store.Source.of_image ~retry ~faults:plan ~cache:(cache ()) (Lazy.force image) with
      | Ok r -> Some r
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
  in
  let store =
    Option.map
      (fun socket ->
        let conn =
          try Kondo_store.Transport.unix_connect socket
          with Unix.Unix_error (e, _, _) ->
            Printf.eprintf "cannot connect to store socket %s: %s\n" socket
              (Unix.error_message e);
            exit 2
        in
        let client = Kondo_store.Client.connect ~retry ~faults:plan ~cache:(cache ()) conn in
        (client, Kondo_store.Source.of_client ~store_name ~image:(Lazy.force image) client))
      remote_store
  in
  let clients = List.filter_map Fun.id [ store; remote ] in
  let source =
    match clients with [] -> None | cs -> Some (Kondo_store.Source.first (List.map snd cs))
  in
  let rt =
    try Runtime.of_files ?store:source [ (dst, path) ]
    with Kondo_h5.Binio.Corrupt msg -> raise (Kondo_h5.Binio.Corrupt (path ^ ": " ^ msg))
  in
  Fun.protect ~finally:(fun () ->
      Runtime.shutdown rt;
      List.iter (fun (c, _) -> Kondo_store.Client.close c) clients)
  @@ fun () ->
  let csum = ref checksum_empty in
  let missing =
    match
      Program.iter_access p v (fun idx ->
          match Runtime.try_read_element rt ~dst ~dataset:p.Program.dataset idx with
          | Ok value -> csum := checksum_add !csum value
          | Error (Runtime.Degraded _) -> ()
          | Error exn -> raise exn)
    with
    | () -> None
    | exception Kondo_h5.File.Data_missing miss -> Some miss
  in
  let s = Runtime.stats rt in
  (match (missing, source) with
  | Some miss, _ ->
    Printf.printf "DATA MISSING at index (%s), byte offset %d — not containerized for this valuation\n"
      (String.concat "," (Array.to_list (Array.map string_of_int miss.Kondo_h5.File.index)))
      miss.Kondo_h5.File.offset
  | None, None -> Printf.printf "read %d elements — run supported by this file\n" s.Runtime.reads
  | None, Some _ ->
    Printf.printf "read %d elements: %d local, %d served on a miss (%d bytes), %d degraded\n"
      s.Runtime.reads
      (s.Runtime.reads - s.Runtime.misses)
      s.Runtime.store_fetches s.Runtime.store_bytes s.Runtime.degraded_reads);
  let store_fields =
    match store with
    | None -> []
    | Some (c, _) ->
      let cs = Kondo_store.Client.stats c in
      print_client "store" cs;
      let server_counters =
        match Kondo_store.Client.stat c with
        | Ok i ->
          Printf.printf "store server: %d chunks, cache %d hits / %d misses, %d coalesced\n"
            i.Kondo_store.Proto.chunks i.Kondo_store.Proto.cache_hits
            i.Kondo_store.Proto.cache_misses i.Kondo_store.Proto.cache_coalesced;
          [ ("server_cache_hits", i.Kondo_store.Proto.cache_hits);
            ("server_cache_misses", i.Kondo_store.Proto.cache_misses);
            ("server_cache_coalesced", i.Kondo_store.Proto.cache_coalesced) ]
        | Error _ -> []
      in
      (* the snapshot the printed line shows, taken before the reporting
         STAT round trip so the counts are the run's own *)
      client_fields "client_" cs @ server_counters
  in
  let remote_fields =
    match remote with
    | None -> []
    | Some (c, _) ->
      let cs = Kondo_store.Client.stats c in
      print_client "remote" cs;
      client_fields "remote_" cs
  in
  if Option.is_none missing then Printf.printf "value checksum: %016Lx\n" !csum;
  if Option.is_some source then
    if s.Runtime.degraded_reads > 0 then
      Printf.printf "run completed with degraded reads — %d offsets unavailable locally and remotely\n"
        s.Runtime.degraded_reads
    else Printf.printf "run fully served\n";
  (match stats_json with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Runtime.stats_to_json
         ~extra:((("fetched_blocks", Runtime.fetched_blocks rt) :: store_fields) @ remote_fields)
         s);
    output_char oc '\n';
    close_out oc;
    Printf.printf "stats written to %s\n" file);
  Option.is_none missing

let run_cmd =
  let run name n m params path remote retries deadline_ms fault_plan remote_store
      store_name store_cache stats_json trace metrics =
    let p = find_program name n m in
    let v = Array.of_list params in
    if Array.length v <> Program.arity p then begin
      Printf.eprintf "%s expects %d parameters\n" p.Program.name (Program.arity p);
      exit 2
    end;
    let plan = parse_fault_plan fault_plan in
    let complete =
      with_obs ~trace ~metrics (fun () ->
          run_with_runtime p v ~path ~src:remote ~remote_store ~store_name ~store_cache
            ~retries ~deadline_ms ~plan ~stats_json)
    in
    (* only now: the metrics, trace and stats files are written *)
    if not complete then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program against a KH5 file (original or debloated).")
    Term.(
      const run $ program_arg $ n_arg $ m_arg $ params_arg $ path_arg 0 "KH5 data file."
      $ remote_arg $ remote_retries_arg $ remote_deadline_arg $ fault_plan_arg
      $ remote_store_arg $ store_name_arg $ store_cache_arg $ stats_json_arg
      $ trace_arg $ metrics_arg)

(* ---- serve ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  in
  let store_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store-file" ] ~docv:"FILE"
          ~doc:
            "Persist chunks to this crash-safe backing file. An existing file is loaded \
             — torn tails from a crash are salvaged and truncated.")
  in
  let cache_bytes_arg =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"BYTES"
          ~doc:"Server-side read cache budget (default 1 MiB).")
  in
  let chunk_size_arg =
    Arg.(
      value
      & opt int Kondo_store.Chunk.default_size
      & info [ "chunk-size" ] ~docv:"BYTES" ~doc:"Chunk size for served files.")
  in
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"KH5" ~doc:"Dense KH5 files to serve.")
  in
  let run socket store_file cache_bytes chunk_size jobs files =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
      exit 2
    end;
    let store = Kondo_store.Block_store.create ?path:store_file () in
    (match store_file with
    | Some f ->
      let salvaged, intact = Kondo_store.Block_store.load_report store in
      if salvaged > 0 || not intact then
        Printf.printf "loaded %d chunk(s) from %s%s\n%!" salvaged f
          (if intact then "" else " (torn tail salvaged)")
    | None -> ());
    let server = Kondo_store.Server.create ~cache_bytes ~jobs ~store () in
    List.iter
      (fun path ->
        List.iter
          (fun m ->
            Printf.printf "serving %s: %d chunk(s), %d bytes\n%!" m.Kondo_store.Chunk.name
              (Kondo_store.Chunk.chunk_count m) m.Kondo_store.Chunk.total_len)
          (Kondo_store.Server.add_kh5 server ~chunk_size ~name:(Filename.basename path) path))
      files;
    (* SIGTERM and SIGINT stop the server: the signal interrupts a blocked
       accept, the accept loop sees the flag, and [serve_unix] removes
       the socket on its way out. *)
    let stopped = Atomic.make false in
    let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stopped true) in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    Kondo_store.Server.serve_unix server ~socket
      ~on_ready:(fun () -> Printf.printf "listening on %s\n%!" socket)
      ~stop:(fun () -> Atomic.get stopped)
      ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve dense KH5 files as content-addressed chunks over a Unix-domain socket \
          (the server side of $(b,kondo run --remote-store)). Runs until SIGTERM or \
          SIGINT, then removes the socket and exits 0.")
    Term.(
      const run $ socket_arg $ store_file_arg $ cache_bytes_arg $ chunk_size_arg
      $ jobs_arg $ files_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run socket =
    let conn =
      try Kondo_store.Transport.unix_connect socket
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to store socket %s: %s\n" socket
          (Unix.error_message e);
        exit 2
    in
    let client = Kondo_store.Client.connect conn in
    Fun.protect
      ~finally:(fun () -> Kondo_store.Client.close client)
      (fun () ->
        match Kondo_store.Client.scrape client with
        | Ok text -> print_string text
        | Error e ->
          Printf.eprintf "scrape failed: %s\n" (Kondo_faults.Fault.to_string e);
          exit 1)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a live $(b,kondo serve) process: print its metrics registry (request, \
          cache, and pool counters plus latency histograms) in Prometheus text \
          exposition format.")
    Term.(const run $ path_arg 0 "Unix-domain socket the server listens on.")

(* ---- report ---- *)

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let runtime_stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "runtime-stats" ] ~docv:"FILE"
        ~doc:
          "Fold a $(b,kondo run --stats-json) file into the report, surfacing the \
           remote/store fetch and cache counters alongside the debloat metrics.")

let fuzz_trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fuzz-trace" ] ~docv:"FILE"
        ~doc:
          "Dump the fuzz schedule's per-iteration outcomes (the paper's Fig. 4 scatter \
           data) to FILE as Chrome trace_event JSON: one event per debloat test at \
           ts = iteration, categorized useful/non-useful.")

let report_cmd =
  let run name n m seed max_iter jobs json runtime_stats fuzz_trace trace metrics =
    let p = find_program name n m in
    let config = config_of ~jobs seed max_iter in
    let r = with_obs ~trace ~metrics (fun () -> Pipeline.evaluate ~config p) in
    let stats_raw =
      Option.map
        (fun file -> String.trim (Bytes.unsafe_to_string (read_whole_file file)))
        runtime_stats
    in
    (match fuzz_trace with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Report.fuzz_trace_json r.Pipeline.fuzz);
      output_char oc '\n';
      close_out oc);
    if json then begin
      let base = Report.pipeline_json p r in
      let j =
        match base with
        | Report.Json.Obj fields ->
          let extra =
            (match stats_raw with
            | Some raw -> [ ("runtime_stats", Report.Json.Raw raw) ]
            | None -> [])
            @ [ ( "metrics",
                  Report.Json.Raw (Kondo_obs.Registry.to_json Kondo_obs.Registry.default)
                ) ]
          in
          Report.Json.Obj (fields @ extra)
        | _ -> base
      in
      print_endline (Report.Json.to_string ~indent:2 j)
    end
    else begin
      print_string (Report.pipeline_text p r);
      (match stats_raw with
      | Some raw -> Printf.printf "runtime stats: %s\n" raw
      | None -> ());
      let a = Option.get r.Pipeline.accuracy in
      Printf.printf "truth bloat: %.2f%%\n"
        (100.0 *. (Metrics.bloat_fraction (Program.ground_truth p)));
      ignore a;
      Printf.printf "missed     : %.3f%% of parameter valuations\n"
        (100.0 *. Metrics.missed_valuation_rate p ~approx:r.Pipeline.approx)
    end
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Evaluate Kondo against a program's exact ground truth.")
    Term.(
      const run $ program_arg $ n_arg $ m_arg $ seed_arg $ max_iter_arg $ jobs_arg
      $ json_arg $ runtime_stats_arg $ fuzz_trace_out_arg $ trace_arg $ metrics_arg)

(* ---- invariant ---- *)

let invariant_cmd =
  let run name n m seed max_iter =
    let p = find_program name n m in
    let config = config_of seed max_iter in
    let r = Pipeline.approximate ~config p in
    let carve = r.Pipeline.carve in
    let inv = Invariant.of_carve carve in
    Printf.printf
      "%s: the carved data subset as a disjunctive linear invariant\n(%d clauses, %d constraints):\n\n%s\n"
      p.Program.name
      (List.length (Invariant.clauses inv))
      (Invariant.constraint_count inv) (Invariant.to_string inv)
  in
  Cmd.v
    (Cmd.info "invariant"
       ~doc:"Print the carved subset as a disjunctive linear invariant (paper SecVII).")
    Term.(const run $ program_arg $ n_arg $ m_arg $ seed_arg $ max_iter_arg)

(* ---- audit ---- *)

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc:"Save the event log.")

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Print the lineage graph in Graphviz form.")

let audit_cmd =
  let run name n m params path log dot =
    let p = find_program name n m in
    let tracer = Kondo_audit.Tracer.create () in
    let f = open_kh5 ~tracer ~pid:1 path in
    let elems = Program.run_io p f (Array.of_list params) in
    Kondo_h5.File.close f;
    Printf.printf "read %d elements via %d events\n" elems
      (Kondo_audit.Tracer.event_count tracer);
    let offs = Kondo_audit.Tracer.offsets tracer ~pid:1 ~path in
    Printf.printf "accessed byte ranges: %s\n" (Kondo_interval.Interval_set.to_string offs);
    (match log with
    | Some out ->
      Kondo_audit.Event_log.save out (Kondo_audit.Tracer.events tracer);
      Printf.printf "event log saved to %s\n" out
    | None -> ());
    if dot then
      print_string
        (Kondo_provenance.Lineage.to_dot
           (Kondo_provenance.Lineage.of_tracer ~names:(fun _ -> name) tracer))
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Run a program under the fine-grained audit and report offsets.")
    Term.(
      const run $ program_arg $ n_arg $ m_arg $ params_arg $ path_arg 0 "KH5 data file."
      $ log_arg $ dot_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let state_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state" ] ~docv:"FILE" ~doc:"Campaign state file (created when absent).")
  in
  let rounds_arg =
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"K" ~doc:"Fuzzing rounds to add.")
  in
  let run name n m seed max_iter jobs trace metrics state rounds =
    let p = find_program name n m in
    let config = config_of ~jobs seed max_iter in
    with_obs ~trace ~metrics @@ fun () ->
    let c =
      if Sys.file_exists state then (
        try
          let c, intact = Campaign.salvage p state in
          if not intact then
            Printf.eprintf
              "warning: %s was truncated or corrupt; salvaged %d observed indices over %d rounds\n"
              state
              (Index_set.cardinal (Campaign.observed c))
              (Campaign.rounds c);
          c
        with Invalid_argument msg ->
          Printf.eprintf "cannot resume campaign: %s\n" msg;
          exit 2)
      else Campaign.fresh p
    in
    let before = Index_set.cardinal (Campaign.observed c) in
    let c = Campaign.extend ~config p c rounds in
    Campaign.save c state;
    let approx = Campaign.carve ~config p c in
    Printf.printf
      "%s: %d total rounds; observed %d indices (+%d this session); carved subset %d indices (%.2f%%)\n"
      p.Program.name (Campaign.rounds c)
      (Index_set.cardinal (Campaign.observed c))
      (Index_set.cardinal (Campaign.observed c) - before)
      (Index_set.cardinal approx)
      (100.0 *. Index_set.fraction approx);
    Printf.printf "state saved to %s\n" state
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Extend a resumable fuzzing campaign (paper SecVI: let Kondo run for more time).")
    Term.(
      const run $ program_arg $ n_arg $ m_arg $ seed_arg $ max_iter_arg $ jobs_arg
      $ trace_arg $ metrics_arg $ state_arg $ rounds_arg)

(* ---- replay ---- *)

let replay_cmd =
  let run path =
    let tracer = Kondo_audit.Event_log.replay path in
    Printf.printf "%d events over %d file(s)\n"
      (Kondo_audit.Tracer.event_count tracer)
      (List.length (Kondo_audit.Tracer.paths tracer));
    List.iter
      (fun p ->
        Printf.printf "  %s: %s\n" p
          (Kondo_interval.Interval_set.to_string
             (Kondo_audit.Tracer.offsets_of_path tracer ~path:p)))
      (Kondo_audit.Tracer.paths tracer)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Rebuild offset summaries from a saved event log.")
    Term.(const run $ path_arg 0 "Event log file.")

(* ---- convert ---- *)

let convert_cmd =
  let run src dst =
    let f = Kondo_h5.Netcdf.open_file src in
    Kondo_h5.Netcdf.to_kh5 f dst;
    Printf.printf "converted %d variable(s) from %s to %s\n"
      (List.length (Kondo_h5.Netcdf.vars f))
      src dst;
    Kondo_h5.Netcdf.close f
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert a NetCDF classic file to KH5.")
    Term.(const run $ path_arg 0 "Source NetCDF file." $ path_arg 1 "Destination KH5 file.")

(* ---- inspect ---- *)

let inspect_cmd =
  let run path =
    let f = open_kh5 path in
    Printf.printf "%s (%d bytes)\n" path (Kondo_h5.File.file_size f);
    List.iter
      (fun ds ->
        let name = ds.Kondo_h5.Dataset.name in
        Printf.printf "  %s [%s]\n" (Kondo_h5.Dataset.to_string ds)
          (if Kondo_h5.File.verify f name then "crc ok" else "CRC MISMATCH");
        List.iter
          (fun (k, attr) ->
            match attr with
            | Kondo_h5.Dataset.Str v -> Printf.printf "    @%s = %S\n" k v
            | Kondo_h5.Dataset.Num v -> Printf.printf "    @%s = %g\n" k v)
          ds.Kondo_h5.Dataset.attrs)
      (Kondo_h5.File.datasets f);
    Kondo_h5.File.close f
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a KH5 file's datasets.")
    Term.(const run $ path_arg 0 "KH5 file.")

let () =
  let info =
    Cmd.info "kondo" ~version:"1.0.0"
      ~doc:"Provenance-driven data debloating (reproduction of Kondo, ICDE 2024)."
  in
  (* An unreadable or malformed input file is a usage error (exit 2, one
     line), not an internal one. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [ programs_cmd; mkdata_cmd; debloat_cmd; run_cmd; serve_cmd; stats_cmd;
              report_cmd; inspect_cmd; invariant_cmd; audit_cmd; campaign_cmd; replay_cmd;
              convert_cmd ])
     with
     | Kondo_h5.Binio.Corrupt msg ->
       Printf.eprintf "kondo: malformed KH5 file: %s\n" msg;
       2
     | Sys_error msg ->
       Printf.eprintf "kondo: %s\n" msg;
       2
     | e ->
       Printf.eprintf "kondo: internal error, uncaught exception:\n       %s\n"
         (Printexc.to_string e);
       Cmd.Exit.internal_error)
