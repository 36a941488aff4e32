(* The Kondo benchmark: one workload per process.

   Every workload plays the same three phases at a different size, so
   that a different layer dominates each one (README.md beside this file
   gives the reasons and the measured layer shares):

   1. debloat  the developer's cost: fuzz schedule, carve, rasterize,
               keep-intervals and sparse KH5 write for each target program;
   2. runs     the end user's cost: closed-loop runs of useful valuations
               through the container runtime against the debloated files,
               carved-away reads served by a loopback chunk server over the
               dense files, with a fresh store client (256 KiB cache) per run;
   3. mix      single-client closed-loop protocol traffic on that server:
               Zipf(1.1) keys, 70% BATCH, 20% GET, 10% PUT.

   Everything is single-domain over the in-process loopback transport.
   With [--trace 0] the process prints the end-to-end metrics.  With
   [--trace 1] it runs one untraced and one traced pass of identical
   work, fails unless both did the same work, and prints the per-layer
   split.  The last stdout line is the result JSON. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_workload
open Kondo_container
open Kondo_core
open Kondo_store
module Trace = Kondo_obs.Trace
module Rng = Kondo_prng.Rng

let now () = Unix.gettimeofday ()

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type target = {
  tag : string;  (** file stem, mount name and store key *)
  prog : Program.t;
  size_flags : string list;  (** the program's size as [kondo] flags *)
  max_iter : int;
  runs : int;  (** useful valuations run per pass *)
}

type workload = {
  name : string;
  targets : target list;
  debloat_reps : int;
}

let full_budget = Config.default.Config.max_iter

let workloads =
  [ { name = "debloat_2d";
      targets =
        [ { tag = "cs3"; prog = Stencils.cs ~n:2048 3; size_flags = [ "-n"; "2048" ];
            max_iter = full_budget; runs = 128 };
          { tag = "prl2d"; prog = Stencils.prl2d ~n:2048 (); size_flags = [ "-n"; "2048" ];
            max_iter = full_budget; runs = 256 } ];
      debloat_reps = 3 };
    { name = "debloat_3d";
      targets =
        [ { tag = "prl3d"; prog = Stencils.prl3d ~m:128 (); size_flags = [ "-m"; "128" ];
            max_iter = full_budget; runs = 64 } ];
      debloat_reps = 3 };
    { name = "store";
      targets =
        [ { tag = "prl2d"; prog = Stencils.prl2d ~n:1024 (); size_flags = [ "-n"; "1024" ];
            max_iter = 40; runs = 256 } ];
      debloat_reps = 80 } ]

let setup_reps = 7
let min_rounds = 3
let client_cache_bytes = 256 * 1024
let server_cache_bytes = 1024 * 1024
let mix_ops = 8192
let mix_warmup_ops = 4096
let zipf_s = 1.1

let config_for t = { Config.default with Config.max_iter = t.max_iter; jobs = 1 }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let file_size path = (Unix.stat path).Unix.st_size

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Untraced, a timer only measures what the end-to-end metrics need.
   Traced, it also records each step as a span and sums durations by
   name; per-read and per-request costs are sums ([acc]) and samples
   ([sample]), not spans. *)
type timer = {
  trace : Trace.t option;
  cells : (string, float ref) Hashtbl.t;
  lists : (string, float list ref) Hashtbl.t;
}

let plain () = { trace = None; cells = Hashtbl.create 1; lists = Hashtbl.create 1 }
let traced () = { trace = Some (Trace.create ()); cells = Hashtbl.create 32; lists = Hashtbl.create 4 }

let find tbl name fresh =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = fresh () in
    Hashtbl.add tbl name c;
    c

(* Named sums and sample lists; hot paths look a cell up once. *)
let cell tm name = find tm.cells name (fun () -> ref 0.0)
let samples tm name = find tm.lists name (fun () -> ref [])
let total tm name = !(cell tm name)

let add tm name v =
  let c = cell tm name in
  c := !c +. v

(* [step tm name f] is [f ()] and its wall time. *)
let step tm name f =
  match tm.trace with
  | None ->
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  | Some tr ->
    let sp = Trace.begin_span tr ~cat:"perfbench" name in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    Trace.end_span tr sp;
    add tm name dt;
    (r, dt)

let acc tm cell f =
  match tm.trace with
  | None -> f ()
  | Some _ ->
    let t0 = now () in
    let r = f () in
    cell := !cell +. (now () -. t0);
    r

(* ------------------------------------------------------------------ *)
(* Reference output: [kondo debloat --jobs 1], memoized per binary     *)
(* ------------------------------------------------------------------ *)

let run_cli kondo args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process kondo (Array.of_list (kondo :: args)) Unix.stdin null Unix.stderr)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "`kondo %s` failed" (String.concat " " args)

(* tag -> digest of the file [kondo mkdata] + [kondo debloat --jobs 1]
   write for the target.  The CLI is deterministic, so the digest is
   kept under [cache], keyed by the binary and its arguments. *)
let reference_digests ~kondo ~cache ~dir w =
  mkdir_p cache;
  let binary = Digest.file kondo in
  List.map
    (fun t ->
      let program = t.size_flags @ [ "-p"; t.prog.Program.name ] in
      let budget = program @ [ "--max-iter"; string_of_int t.max_iter; "--jobs"; "1" ] in
      let key = Digest.to_hex (Digest.string (binary ^ String.concat " " budget)) in
      let memo = Filename.concat cache (key ^ ".md5") in
      if not (Sys.file_exists memo) then begin
        let src = Filename.concat dir (t.tag ^ ".ref-dense.kh5") in
        let dst = Filename.concat dir (t.tag ^ ".ref.kh5") in
        run_cli kondo (("mkdata" :: program) @ [ src ]);
        run_cli kondo (("debloat" :: budget) @ [ src; dst ]);
        let tmp = memo ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc (Digest.to_hex (Digest.file dst));
        close_out oc;
        Sys.rename tmp memo;
        Sys.remove src;
        Sys.remove dst
      end;
      (t.tag, String.trim (read_file memo)))
    w.targets

(* ------------------------------------------------------------------ *)
(* Set-up: dense files, ground truth, server ingest                    *)
(* ------------------------------------------------------------------ *)

type env = {
  w : workload;
  dir : string;
  dense : (string * string) list;  (** tag -> dense KH5 path *)
  truth : (string * Index_set.t) list;
  server : Server.t;
  manifests : (string * Chunk.manifest) list;  (** tag -> manifest of its data section *)
}

(* [Program.ground_truth] memoizes per program and set-up is repeated,
   so compute the truth afresh, the same two ways it does. *)
let fresh_truth p =
  match p.Program.truth with
  | Some pred ->
    let set = Index_set.create p.Program.shape in
    Shape.iter p.Program.shape (fun idx -> if pred idx then Index_set.add set idx);
    set
  | None -> Program.exhaustive_truth p

let setup tm w ~dir =
  let dense = List.map (fun t -> (t.tag, Filename.concat dir (t.tag ^ ".dense.kh5"))) w.targets in
  let (), _ =
    step tm "setup.mkdata" (fun () ->
        List.iter (fun t -> Datafile.write_for ~path:(List.assoc t.tag dense) t.prog) w.targets)
  in
  let truth, _ =
    step tm "setup.truth" (fun () -> List.map (fun t -> (t.tag, fresh_truth t.prog)) w.targets)
  in
  let (server, manifests), _ =
    step tm "setup.ingest" (fun () ->
        let server =
          Server.create ~cache_bytes:server_cache_bytes ~jobs:1 ~store:(Block_store.create ()) ()
        in
        ( server,
          List.map
            (fun t ->
              match Server.add_kh5 server ~name:t.tag (List.assoc t.tag dense) with
              | [ m ] -> (t.tag, m)
              | _ -> die "%s: expected one dataset" t.tag)
            w.targets ))
  in
  { w; dir; dense; truth; server; manifests }

(* ------------------------------------------------------------------ *)
(* Phase 1: debloat                                                    *)
(* ------------------------------------------------------------------ *)

(* The public steps [Pipeline.debloat_file] runs, each timed. *)
let debloat_steps tm env t ~dst =
  let config = config_for t in
  let p = t.prog in
  let fuzz, _ = step tm "schedule" (fun () -> Schedule.run ~config p) in
  let carve, _ = step tm "carve" (fun () -> Carver.carve ~config fuzz.Schedule.indices) in
  let approx, _ =
    step tm "rasterize" (fun () -> Carver.rasterize p.Program.shape carve.Carver.hulls)
  in
  let (), _ = step tm "union" (fun () -> Index_set.union_into approx fuzz.Schedule.indices) in
  let source, _ =
    step tm "write" (fun () -> Kondo_h5.File.open_file (List.assoc t.tag env.dense))
  in
  Fun.protect
    ~finally:(fun () -> Kondo_h5.File.close source)
    (fun () ->
      let layout = (Kondo_h5.File.find source p.Program.dataset).Kondo_h5.Dataset.layout in
      let keep, _ =
        step tm "keep_intervals" (fun () -> Pipeline.keep_intervals p approx ~layout)
      in
      let (), _ =
        step tm "write" (fun () ->
            Kondo_h5.Writer.write_debloated dst ~source ~keep:(fun name ->
                if String.equal name p.Program.dataset then keep else Interval_set.empty))
      in
      (fuzz, carve, approx))

let debloat_one tm env t ~dst =
  match tm.trace with
  | None ->
    let r =
      Pipeline.debloat_file ~config:(config_for t) t.prog ~src:(List.assoc t.tag env.dense) ~dst
    in
    (r.Pipeline.fuzz, r.Pipeline.carve, r.Pipeline.approx)
  | Some _ -> debloat_steps tm env t ~dst

type debloated = {
  d_tag : string;
  path : string;
  truth_hits : int;  (** |I_Θ ∩ I'_Θ| *)
  truth_size : int;
  counts : (string * int) list;  (** work counters from the result records and the file *)
}

let describe t ~dst (fuzz, carve, approx) ~truth =
  let f = Kondo_h5.File.open_file dst in
  let ds = Kondo_h5.File.find f t.prog.Program.dataset in
  Kondo_h5.File.close f;
  let intervals =
    match ds.Kondo_h5.Dataset.storage with
    | Kondo_h5.Dataset.Sparse keep -> Interval_set.cardinal keep
    | Kondo_h5.Dataset.Dense -> die "%s: debloated file is dense" t.tag
  in
  { d_tag = t.tag;
    path = dst;
    truth_hits = Index_set.inter_cardinal truth approx;
    truth_size = Index_set.cardinal truth;
    counts =
      List.map
        (fun (k, v) -> (t.tag ^ "." ^ k, v))
        [ ("evaluations", fuzz.Schedule.evaluations);
          ("useful", fuzz.Schedule.useful_count);
          ("cells", carve.Carver.initial_cells);
          ("merges", carve.Carver.merges);
          ("hulls", List.length carve.Carver.hulls);
          ("approx_indices", Index_set.cardinal approx);
          ("keep_intervals", intervals);
          ("written_bytes", file_size dst) ] }

(* Debloats every target once, each from a compacted heap as in a fresh
   [kondo debloat] process; returns the outputs and the wall time.
   Every output must be byte-identical to the reference. *)
let debloat tm env ~expect ~suffix =
  let wall = ref 0.0 in
  let outs =
    List.map
      (fun t ->
        let dst = Filename.concat env.dir (t.tag ^ suffix) in
        Gc.compact ();
        let r, dt = step tm "debloat" (fun () -> debloat_one tm env t ~dst) in
        wall := !wall +. dt;
        if Digest.to_hex (Digest.file dst) <> List.assoc t.tag expect then
          die "%s: debloated file differs from `kondo debloat --jobs 1` output" t.tag;
        describe t ~dst r ~truth:(List.assoc t.tag env.truth))
      env.w.targets
  in
  (outs, !wall)

let kept_frac env outs =
  let kept = List.fold_left (fun a d -> a + file_size d.path) 0 outs in
  let dense = List.fold_left (fun a (_, p) -> a + file_size p) 0 env.dense in
  ratio kept dense

(* Index-weighted over the workload's programs. *)
let recall outs =
  ratio
    (List.fold_left (fun a d -> a + d.truth_hits) 0 outs)
    (List.fold_left (fun a d -> a + d.truth_size) 0 outs)

(* ------------------------------------------------------------------ *)
(* Phase 2: debloated runs                                             *)
(* ------------------------------------------------------------------ *)

let mount tag = "/data/" ^ tag ^ ".kh5"

(* [runs] useful valuations per target, drawn uniformly from Θ by a
   fixed generator: the same set for every seed, so per-run work summed
   over it does not depend on the seed.  The seed orders the set. *)
let valuations w ~seed =
  let pick = Rng.create 20240417 in
  let draw t =
    let p = t.prog in
    let rec useful () =
      let v =
        Array.map
          (fun (lo, hi) ->
            let lo = int_of_float lo in
            float_of_int (lo + Rng.int pick (int_of_float hi - lo + 1)))
          p.Program.param_space
      in
      if Program.is_useful p v then v else useful ()
    in
    List.init t.runs (fun _ -> (t, useful ()))
  in
  let a = Array.of_list (List.concat_map draw w.targets) in
  Rng.shuffle_in_place (Rng.create ((seed * 7919) + 1)) a;
  a

(* The loopback handler is the server's whole protocol; traced, it is
   timed and classified by request kind. *)
let handler tm server ~phase =
  let handle_s = cell tm (phase ^ ".handle") in
  let get = samples tm (phase ^ ".get") and batch = samples tm (phase ^ ".batch") in
  let put = samples tm (phase ^ ".put") in
  fun body ->
    match tm.trace with
    | None -> Server.handle server body
    | Some _ ->
      let t0 = now () in
      let resp = Server.handle server body in
      let dt = now () -. t0 in
      handle_s := !handle_s +. dt;
      (match Proto.decode_request body with
      | Ok (Proto.Get _) -> get := dt :: !get
      | Ok (Proto.Batch _) -> batch := dt :: !batch
      | Ok (Proto.Put _) -> put := dt :: !put
      | Ok _ | Error _ -> ());
      resp

let access_count t v =
  let n = ref 0 in
  Program.iter_access t.prog v (fun _ -> incr n);
  !n

(* What one pass of a phase measured. *)
type pass = {
  lat : float list;  (** seconds per run or request *)
  busy : float;  (** seconds inside the timed operations *)
  failed : int;
}

(* A phase that is run in passes; [counters] reads the work done since
   the phase began, so right after the first pass it is that pass's. *)
type phase = { pass : unit -> pass; counters : unit -> (string * int) list; close : unit -> unit }

(* Closed-loop runs through one booted runtime, a pass being one run of
   every valuation.  The server cache is emptied first, so the first
   pass always starts from the same state. *)
let runs_phase tm env outs vals ~name =
  let client = ref None in
  let resolved = Hashtbl.create 4 in
  let store_calls = ref 0 in
  let client_s = cell tm "client.read_bytes" and read_s = cell tm "runtime.read" in
  (* Wrong bytes from the store abort the command; the runtime would
     only degrade the read. *)
  let trusted = function
    | Error (Kondo_faults.Fault.Corrupt msg) -> die "the store returned wrong bytes: %s" msg
    | r -> r
  in
  (* Resolve the manifest on a run's first miss, as [kondo run
     --remote-store] does, then serve misses with range GETs. *)
  let store_fetch ~dst ~dataset ~offset ~length =
    incr store_calls;
    acc tm client_s (fun () ->
        let c = Option.get !client in
        let manifest =
          match Hashtbl.find_opt resolved dst with
          | Some m -> Ok m
          | None ->
            let tag = List.assoc dst (List.map (fun d -> (mount d.d_tag, d.d_tag)) outs) in
            Result.map
              (fun m ->
                Hashtbl.replace resolved dst m;
                m)
              (trusted (Client.manifest c ~name:(tag ^ "#" ^ dataset)))
        in
        match Result.bind manifest (fun m -> trusted (Client.read_bytes c m ~offset ~length)) with
        | Ok b when Bytes.length b <> length ->
          die "the store returned %d bytes, wanted %d" (Bytes.length b) length
        | r -> r)
  in
  let boot () =
    let spec =
      { Spec.empty with
        Spec.base = "scratch";
        data_deps = List.map (fun d -> { Spec.src = d.path; dst = mount d.d_tag }) outs }
    in
    let image = Image.build spec ~fetch:(fun src -> Bytes.unsafe_of_string (read_file src)) in
    let dir = Filename.concat env.dir name in
    mkdir_p dir;
    Runtime.boot ~store:{ Runtime.source_name = "loopback"; store_fetch } ~image ~dir ()
  in
  (* Booted once: each extra boot in the process, even shut down, adds
     about 11 MB to the RSS the later runs reach on [store]. *)
  let rt, boot_s = step tm "setup.image" boot in
  let handle = handler tm env.server ~phase:"runs" in
  let client_totals = ref [] and failed_total = ref 0 in
  (* A run stores what it reads; the values are checked against the
     fill after the run's clock stops. *)
  let most = Array.fold_left (fun a (t, v) -> max a (access_count t v)) 0 vals in
  let got = Float.Array.make most 0.0 and served = Array.make most false in
  let check t v =
    let k = ref 0 in
    Program.iter_access t.prog v (fun idx ->
        let x = Float.Array.get got !k and ok = served.(!k) in
        incr k;
        if ok && not (Float.equal x (Datafile.fill idx)) then
          die "a run of %s read a wrong value at (%s)" t.tag
            (String.concat "," (Array.to_list (Array.map string_of_int idx))))
  in
  let one_run (t, v) =
    let c =
      Client.connect
        ~cache:(Cache.create ~budget_bytes:client_cache_bytes ())
        (Transport.loopback ~handle)
    in
    client := Some c;
    Hashtbl.reset resolved;
    let dst = mount t.tag and dataset = t.prog.Program.dataset in
    let unserved = ref 0 and k = ref 0 in
    let (), dt =
      step tm "run" (fun () ->
          Program.iter_access t.prog v (fun idx ->
              (match acc tm read_s (fun () -> Runtime.try_read_element rt ~dst ~dataset idx) with
              | Ok x ->
                Float.Array.unsafe_set got !k x;
                Array.unsafe_set served !k true
              | Error _ ->
                Array.unsafe_set served !k false;
                incr unserved);
              incr k))
    in
    check t v;
    let s = Client.stats c in
    let run_totals =
      [ ("client.requests", s.Client.requests);
        ("client.range_gets", s.Client.range_gets);
        ("client.fetched_chunks", s.Client.fetched_chunks);
        ("client.fetched_bytes", s.Client.fetched_bytes);
        ("client.cache_hits", s.Client.cache_hits) ]
    in
    client_totals :=
      if !client_totals = [] then run_totals
      else List.map2 (fun (k, a) (_, b) -> (k, a + b)) !client_totals run_totals;
    Client.close c;
    (dt, !unserved > 0)
  in
  let cache = Server.cache env.server in
  Cache.clear cache;
  let c0 = Cache.stats cache and s0 = Runtime.stats rt in
  let reads0 = s0.Runtime.reads and misses0 = s0.Runtime.misses in
  let served0 = s0.Runtime.store_fetches in
  let pass () =
    let (lat, busy, failed), _ =
      step tm "runs" (fun () ->
          Array.fold_left
            (fun (lat, busy, failed) tv ->
              let dt, bad = one_run tv in
              (dt :: lat, busy +. dt, if bad then failed + 1 else failed))
            ([], 0.0, 0) vals)
    in
    failed_total := !failed_total + failed;
    { lat; busy; failed }
  in
  let counters () =
    let c1 = Cache.stats cache and s1 = Runtime.stats rt in
    [ ("runs.failed", !failed_total);
      ("runtime.reads", s1.Runtime.reads - reads0);
      ("runtime.misses", s1.Runtime.misses - misses0);
      ("runtime.store_served", s1.Runtime.store_fetches - served0);
      ("client.calls", !store_calls) ]
    @ !client_totals
    @ [ ("runs.server_cache_hits", c1.Cache.hits - c0.Cache.hits);
        ("runs.server_cache_misses", c1.Cache.misses - c0.Cache.misses);
        ("runs.server_cache_evictions", c1.Cache.evictions - c0.Cache.evictions) ]
  in
  ({ pass; counters; close = (fun () -> Runtime.shutdown rt) }, boot_s)

(* ------------------------------------------------------------------ *)
(* Phase 3: protocol mix                                               *)
(* ------------------------------------------------------------------ *)

type op =
  | Batch of Chunk.manifest * int * int  (** first chunk, count *)
  | Get of Chunk.manifest * int
  | Put of bytes

(* Zipf ranks over every served chunk, mapped to chunks by a seeded
   permutation.  Every key and payload is drawn here, before timing. *)
let mix_plan env ~seed =
  let rng = Rng.create ((seed * 104729) + 2) in
  let chunks =
    Array.of_list
      (List.concat_map (fun (_, m) -> List.init (Chunk.chunk_count m) (fun i -> (m, i))) env.manifests)
  in
  Rng.shuffle_in_place rng chunks;
  let n = Array.length chunks in
  let cdf = Array.make n 0.0 in
  let sum = ref 0.0 in
  for r = 0 to n - 1 do
    sum := !sum +. (1.0 /. (float_of_int (r + 1) ** zipf_s));
    cdf.(r) <- !sum
  done;
  let draw () =
    let u = Rng.float rng !sum in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    chunks.(!lo)
  in
  let warmup =
    Array.init mix_warmup_ops (fun _ ->
        let m, i = draw () in
        Get (m, i))
  in
  let ops =
    Array.init mix_ops (fun _ ->
        let x = Rng.int rng 100 in
        if x < 70 then begin
          let m, i = draw () in
          Batch (m, i, min (1 + Rng.int rng 16) (Chunk.chunk_count m - i))
        end
        else if x < 90 then begin
          let m, i = draw () in
          Get (m, i)
        end
        else Put (Bytes.init Chunk.default_size (fun _ -> Rng.byte rng)))
  in
  (warmup, ops)

(* Closed-loop passes over [ops], after a warm-up that fills the emptied
   server cache.  Chunks the PUTs added are removed after every pass, so
   each pass starts from the same store. *)
let mix_phase tm env (warmup, ops) =
  let handle = handler tm env.server ~phase:"mix" in
  (* no client cache: every operation reaches the server *)
  let client = Client.connect (Transport.loopback ~handle) in
  let raw = Transport.loopback ~handle in
  let fresh = ref [] and puts_new = ref 0 and failed_total = ref 0 in
  let exec = function
    | Batch (m, first, count) -> (
      match Client.fetch_chunks client m ~first ~count with
      | Ok _ -> true
      | Error (Kondo_faults.Fault.Corrupt msg) -> die "a mix BATCH returned wrong bytes: %s" msg
      | Error _ -> false)
    | Get (m, i) -> (
      (* the client has no single-chunk GET; check the payload as it
         checks BATCH payloads *)
      raw.Transport.send (Proto.encode_request (Proto.Get m.Chunk.ids.(i)));
      match Result.bind (raw.Transport.recv ()) Proto.decode_response with
      | Ok (Proto.Blob b) ->
        if not (Chunk.verify m i (Bytes.of_string b)) then
          die "a mix GET returned wrong bytes for chunk %d of %s" i m.Chunk.name;
        true
      | Ok _ | Error _ -> false)
    | Put payload -> (
      match Client.put client payload with
      | Ok (id, is_new) ->
        if is_new then begin
          incr puts_new;
          fresh := id :: !fresh
        end;
        true
      | Error _ -> false)
  in
  let cache = Server.cache env.server and store = Server.store env.server in
  Cache.clear cache;
  Array.iter (fun op -> if not (exec op) then die "a mix warm-up request was refused") warmup;
  let c0 = Cache.stats cache and served0 = Server.requests_served env.server in
  let chunks_after = ref 0 in
  let pass () =
    let (lat, busy, failed), _ =
      step tm "mix" (fun () ->
          Array.fold_left
            (fun (lat, busy, failed) op ->
              let t0 = now () in
              let ok = exec op in
              let dt = now () -. t0 in
              (dt :: lat, busy +. dt, if ok then failed else failed + 1))
            ([], 0.0, 0) ops)
    in
    failed_total := !failed_total + failed;
    chunks_after := Block_store.count store;
    List.iter (fun id -> ignore (Block_store.remove store id)) !fresh;
    fresh := [];
    { lat; busy; failed }
  in
  let counters () =
    let c1 = Cache.stats cache in
    [ ("mix.requests", Server.requests_served env.server - served0);
      ("mix.failed", !failed_total);
      ("mix.puts", Array.fold_left (fun a op -> match op with Put _ -> a + 1 | _ -> a) 0 ops);
      ("block_store.puts_new", !puts_new);
      ("block_store.chunks", !chunks_after);
      ("server_cache.hits", c1.Cache.hits - c0.Cache.hits);
      ("server_cache.misses", c1.Cache.misses - c0.Cache.misses);
      ("server_cache.evictions", c1.Cache.evictions - c0.Cache.evictions);
      ("server_cache.coalesced", c1.Cache.coalesced - c0.Cache.coalesced) ]
  in
  { pass; counters; close = (fun () -> Client.close client) }

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* The debloats come first, [debloat_reps] of each target.  Then, once
   the debloat heap is dropped, rounds of one pass of runs and one pass
   of the mix alternate while [more] holds, so a slow spell of the
   machine weighs on both alike.  The first round's counters are the
   workload's work counters: each phase starts its first pass from a
   fixed state. *)
type measured = {
  outs : debloated list;
  debloat_walls : float list;
  boot_s : float;
  run_passes : pass list;
  mix_passes : pass list;
  first_round : (string * int) list;
}

let measure tm env ~expect ~vals ~plan ~suffix ~debloat_reps ~more =
  let debloats = List.init debloat_reps (fun _ -> debloat tm env ~expect ~suffix) in
  let outs = fst (List.hd debloats) in
  Gc.compact ();
  let runs, boot_s = runs_phase tm env outs vals ~name:("rt" ^ suffix) in
  let run_passes = ref [ runs.pass () ] in
  let run_counters = runs.counters () in
  let mix = mix_phase tm env plan in
  let mix_passes = ref [ mix.pass () ] in
  let first_round = List.concat_map (fun d -> d.counts) outs @ run_counters @ mix.counters () in
  while more !run_passes !mix_passes do
    run_passes := runs.pass () :: !run_passes;
    mix_passes := mix.pass () :: !mix_passes
  done;
  runs.close ();
  mix.close ();
  { outs;
    debloat_walls = List.map snd debloats;
    boot_s;
    run_passes = List.rev !run_passes;
    mix_passes = List.rev !mix_passes;
    first_round }

(* ------------------------------------------------------------------ *)
(* The two modes                                                       *)
(* ------------------------------------------------------------------ *)

let ms x = 1000.0 *. x

let print_result ~attempted ~failed metrics =
  let field (name, unit, v) =
    if not (Float.is_finite v) then die "metric %s is not finite" name;
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", " (List.map field metrics))

let print_counters label cs = List.iter (fun (k, v) -> Printf.printf "counter %s %s %d\n" label k v) cs
let lookup cs k = try List.assoc k cs with Not_found -> die "no counter %s" k
let pooled passes = List.concat_map (fun p -> p.lat) passes
let busy passes = List.fold_left (fun a p -> a +. p.busy) 0.0 passes
let failures passes = List.fold_left (fun a p -> a + p.failed) 0 passes
let count passes = List.fold_left (fun a p -> a + List.length p.lat) 0 passes

(* Rate of each pass; the median resists a slow spell during one pass. *)
let rate passes = median (List.map (fun p -> float_of_int (List.length p.lat) /. p.busy) passes)

let attempts w m =
  (List.length m.debloat_walls * List.length w.targets) + count m.run_passes + count m.mix_passes

(* Rounds go on, [min_rounds] at least, until the runs and the mix have
   been timed for [seconds] together. *)
let end_to_end w ~seed ~seconds ~dir ~expect =
  let vals = valuations w ~seed in
  (* only the last set-up is kept *)
  let env = ref None and setup_walls = ref [] in
  for _ = 1 to setup_reps do
    env := None;
    Gc.compact ();
    let tm = plain () in
    let e, dt = step tm "setup" (fun () -> setup tm w ~dir) in
    env := Some e;
    setup_walls := dt :: !setup_walls
  done;
  let env = Option.get !env in
  let plan = mix_plan env ~seed in
  let m =
    measure (plain ()) env ~expect ~vals ~plan ~suffix:".deb.kh5" ~debloat_reps:w.debloat_reps
      ~more:(fun rp mp ->
        List.length rp < min_rounds || busy rp +. busy mp < float_of_int seconds)
  in
  print_counters "e2e" m.first_round;
  let runs = pooled m.run_passes and reqs = pooled m.mix_passes in
  Printf.printf "diagnostic run_p99_ms %.4f over %d runs, req_p99_ms %.4f over %d requests\n"
    (ms (percentile runs 0.99)) (List.length runs)
    (ms (percentile reqs 0.99)) (List.length reqs);
  let attempted = attempts w m in
  let failed = failures m.run_passes + failures m.mix_passes in
  print_result ~attempted ~failed
    [ ("setup_s", "s", median !setup_walls +. m.boot_s);
      ("debloat_s", "s", median m.debloat_walls);
      ("kept_frac", "frac", kept_frac env m.outs);
      ("recall", "frac", recall m.outs);
      ("run_p50_ms", "ms", ms (percentile runs 0.5));
      ("run_p90_ms", "ms", ms (percentile runs 0.9));
      ("runs_per_s", "1/s", rate m.run_passes);
      ( "fetch_kib_per_run",
        "KiB",
        float_of_int (lookup m.first_round "client.fetched_bytes")
        /. 1024.0
        /. float_of_int (Array.length vals) );
      ("req_p50_ms", "ms", ms (percentile reqs 0.5));
      ("req_p90_ms", "ms", ms (percentile reqs 0.9));
      ("req_per_s", "1/s", rate m.mix_passes);
      ("ok_frac", "frac", 1.0 -. ratio failed attempted);
      ("peak_rss_mb", "MB", peak_rss_mb ()) ]

(* One untraced and one traced round of the same work. *)
let per_layer w ~seed ~dir ~expect ~trace_out =
  let vals = valuations w ~seed in
  let stm = traced () in
  let env = setup stm w ~dir in
  let plan = mix_plan env ~seed in
  let once tm suffix =
    measure tm env ~expect ~vals ~plan ~suffix ~debloat_reps:1 ~more:(fun _ _ -> false)
  in
  let work m = List.fold_left ( +. ) 0.0 m.debloat_walls +. busy m.run_passes +. busy m.mix_passes in
  let m0 = once (plain ()) ".deb.kh5" in
  let tm = traced () in
  let m1 = once tm ".traced.kh5" in
  let c0 = m0.first_round and c1 = m1.first_round in
  print_counters "untraced" c0;
  print_counters "traced" c1;
  if c0 <> c1 then begin
    List.iter2
      (fun (k, a) (_, b) -> if a <> b then prerr_endline (Printf.sprintf "  %s: %d vs %d" k a b))
      c0 c1;
    die "the traced round did different work from the untraced round"
  end;
  (match (trace_out, tm.trace) with
  | Some path, Some tr ->
    let oc = open_out path in
    output_string oc (Trace.to_chrome_json tr);
    close_out oc
  | _ -> ());
  let c = lookup c1 in
  let sum suffix = List.fold_left (fun a t -> a + c (t.tag ^ "." ^ suffix)) 0 w.targets in
  let runs_n = Array.length vals in
  let per_run k = ratio (c k) runs_n in
  let steps = [ "schedule"; "carve"; "rasterize"; "union"; "keep_intervals"; "write" ] in
  let read_s = total tm "runtime.read" and client_s = total tm "client.read_bytes" in
  let loop_s = busy m1.run_passes in
  let p50 name = ms (median !(samples tm name)) in
  let attempted = attempts w m0 + attempts w m1 in
  let failed =
    failures m0.run_passes + failures m0.mix_passes + failures m1.run_passes
    + failures m1.mix_passes
  in
  print_result ~attempted ~failed
    [ ("setup.mkdata_s", "s", total stm "setup.mkdata");
      ("setup.truth_s", "s", total stm "setup.truth");
      ("setup.ingest_s", "s", total stm "setup.ingest");
      ("setup.image_s", "s", m1.boot_s);
      ("debloat.s", "s", total tm "debloat");
      ( "debloat.steps_frac",
        "frac",
        fratio (List.fold_left (fun a s -> a +. total tm s) 0.0 steps) (total tm "debloat") );
      ("schedule.s", "s", total tm "schedule");
      ("schedule.evals", "count", float_of_int (sum "evaluations"));
      ("schedule.useful_frac", "frac", ratio (sum "useful") (sum "evaluations"));
      ("carve.s", "s", total tm "carve");
      ("carve.cells", "count", float_of_int (sum "cells"));
      ("carve.merges", "count", float_of_int (sum "merges"));
      ("carve.hulls", "count", float_of_int (sum "hulls"));
      ("rasterize.s", "s", total tm "rasterize");
      ("rasterize.indices", "count", float_of_int (sum "approx_indices"));
      ("union.s", "s", total tm "union");
      ("keep_intervals.s", "s", total tm "keep_intervals");
      ("keep_intervals.intervals", "count", float_of_int (sum "keep_intervals"));
      ("write.s", "s", total tm "write");
      ("write.bytes", "B", float_of_int (sum "written_bytes"));
      ("runtime.loop_s", "s", loop_s);
      ("runtime.read_s", "s", read_s);
      ("runtime.read_frac", "frac", fratio read_s loop_s);
      ("runtime.local_s", "s", read_s -. client_s);
      ("runtime.reads_per_run", "count", per_run "runtime.reads");
      ("runtime.miss_frac", "frac", ratio (c "runtime.misses") (c "runtime.reads"));
      ("client.read_bytes_s", "s", client_s);
      ("client.self_s", "s", client_s -. total tm "runs.handle");
      ("client.calls_per_run", "count", per_run "client.calls");
      ("client.range_gets_per_run", "count", per_run "client.range_gets");
      ( "client.cache_hit_frac",
        "frac",
        ratio (c "client.cache_hits") (c "client.cache_hits" + c "client.fetched_chunks") );
      ("client.fetched_bytes_per_run", "B", per_run "client.fetched_bytes");
      ("server.runs_handle_s", "s", total tm "runs.handle");
      ("server.handle_s", "s", total tm "mix.handle");
      ("server.requests", "count", float_of_int (c "mix.requests"));
      ("server.batch_p50_ms", "ms", p50 "mix.batch");
      ("server.get_p50_ms", "ms", p50 "mix.get");
      ("server.put_p50_ms", "ms", p50 "mix.put");
      ( "server_cache.hit_frac",
        "frac",
        ratio (c "server_cache.hits") (c "server_cache.hits" + c "server_cache.misses") );
      ("server_cache.evictions", "count", float_of_int (c "server_cache.evictions"));
      ("server_cache.coalesced", "count", float_of_int (c "server_cache.coalesced"));
      ("block_store.chunks", "count", float_of_int (c "block_store.chunks"));
      ("block_store.put_new_frac", "frac", ratio (c "block_store.puts_new") (c "mix.puts"));
      ("trace.overhead_frac", "frac", fratio (work m1 -. work m0) (work m0)) ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let work = ref ".perfbench_work" and cache = ref ".perfbench_cache" and kondo = ref "" in
  let trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME debloat_2d | debloat_3d | store");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed runs and requests");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer split");
      ("--kondo", Arg.Set_string kondo, "PATH the kondo CLI, for the reference debloats");
      ("--work", Arg.Set_string work, "DIR scratch directory, removed on exit");
      ("--cache", Arg.Set_string cache, "DIR memo of reference digests");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the traced pass") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --kondo PATH";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !kondo = "" then die "--kondo is required";
  if !seconds < 1 then die "--seconds must be at least 1";
  let dir = !work in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  let expect = reference_digests ~kondo:!kondo ~cache:!cache ~dir w in
  match !trace with
  | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds ~dir ~expect
  | 1 ->
    per_layer w ~seed:!seed ~dir ~expect
      ~trace_out:(if !trace_out = "" then None else Some !trace_out)
  | _ -> die "--trace must be 0 or 1"
