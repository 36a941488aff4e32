(* Fault-tolerant remote-fetch experiment: served-read fraction and
   recall under swept fault rates.

   Workload: CS1 is deliberately under-debloated (a tiny fuzz budget) so
   a large fraction of ground-truth reads miss locally and travel the
   runtime's one miss path: a loopback chunk server over the source file
   (digested on the first miss, each chunk read on its first fetch) and
   each block fetch is a store-client exchange — retry with
   backoff, circuit breaker, per-chunk digest verification — while a
   deterministic fault plan injects transient failures, timeouts, short
   reads and corrupted chunks at increasing rates.  The client has no
   chunk cache, so every block fetch is one exchange the plan can hit;
   the runtime's overlay serves later misses into a fetched block.  For
   every transient-only row the runtime must serve 100% of the
   ground-truth reads (the §VI contract, given a sufficient retry
   budget); a permanent-fault row shows reads degrading to structured
   misses — never a crash — with the client's breaker left open.  The
   recovery columns come from the store client's stats.  Results land
   in artifacts/BENCH_faults.json. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_container
open Kondo_core
open Kondo_faults
open Kondo_store
open Exp_common

let dst = "/app/data.kh5"

let build_debloated_image p =
  let src = Filename.temp_file "exp_faults_src" ".kh5" in
  Datafile.write_for ~path:src p;
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src; dst } ];
      param_space = p.Program.param_space }
  in
  let read_file path =
    let ic = open_in_bin path in
    let b = Bytes.create (in_channel_length ic) in
    really_input ic b 0 (Bytes.length b);
    close_in ic;
    b
  in
  let image = Image.build spec ~fetch:read_file in
  (* a weak budget leaves plenty of in-truth offsets carved away *)
  let weak = { Config.default with Config.seed = 1; max_iter = 60; stop_iter = 60 } in
  let debloated, _ = Pipeline.debloat_image ~config:weak p ~image ~dst in
  (src, debloated)

type row = {
  label : string;
  plan_spec : string;
  served : int;
  total : int;
  degraded : int;
  store_fetches : int;
  client : Client.stats;
  breaker : Breaker.state;
  boot_s : float;
  wall_s : float;
}

let sweep_row p image ~label ~plan_spec =
  let plan =
    match Fault_plan.of_string plan_spec with
    | Ok pl -> pl
    | Error msg -> failwith ("exp_faults: bad plan: " ^ msg)
  in
  let retry =
    { Retry.default with Retry.max_attempts = 48; deadline_ms = 1e9; max_delay_ms = 200.0 }
  in
  let dir = Filename.temp_file "exp_faults_rt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* the boot writes the mount and opens and checks the source file; the
     first miss digests it *)
  let t0 = now () in
  let mounts = Image.materialize image ~dir in
  let sources = List.map (fun d -> (d.Spec.dst, d.Spec.src)) image.Image.spec.Spec.data_deps in
  let client, store =
    match Source.of_files ~retry ~faults:plan ~mounts ~sources () with
    | Ok r -> r
    | Error msg -> failwith ("exp_faults: " ^ msg)
  in
  let rt = Runtime.of_files ~store mounts in
  let boot_s = now () -. t0 in
  let truth = Program.ground_truth p in
  let served = ref 0 and degraded = ref 0 and total = ref 0 in
  let t0 = now () in
  Index_set.iter truth (fun idx ->
      incr total;
      match Runtime.try_read_element rt ~dst ~dataset:p.Program.dataset idx with
      | Ok _ -> incr served
      | Error (Runtime.Degraded _) -> incr degraded
      | Error exn -> raise exn);
  let wall_s = now () -. t0 in
  let s = Runtime.stats rt in
  Runtime.shutdown rt;
  Client.close client;
  { label;
    plan_spec;
    served = !served;
    total = !total;
    degraded = !degraded;
    store_fetches = s.Runtime.store_fetches;
    client = Client.stats client;
    breaker = Client.breaker_state client;
    boot_s;
    wall_s }

let json_path () =
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Filename.concat dir "BENCH_faults.json"

let run () =
  header "faults" "Fault-tolerant remote fetch: served reads under swept fault rates";
  let p = Stencils.cs ~n:128 1 in
  let transient_rows =
    List.map
      (fun rate ->
        let spec =
          if rate = 0.0 then "seed=11"
          else
            Printf.sprintf "seed=11,transient=%g,timeout=%g,corrupt=%g,short=%g"
              (0.5 *. rate) (0.2 *. rate) (0.2 *. rate) (0.1 *. rate)
        in
        (Printf.sprintf "transient r=%.1f" rate, spec))
      [ 0.0; 0.2; 0.4; 0.6 ]
  in
  let (src, rows), phase_timings =
    with_phases (fun () ->
        let src, image = phase "build_debloated_image" (fun () -> build_debloated_image p) in
        ( src,
          phase "fault_rate_sweep" (fun () ->
              List.map
                (fun (label, spec) -> sweep_row p image ~label ~plan_spec:spec)
                transient_rows
              @ [ sweep_row p image ~label:"permanent r=1.0"
                    ~plan_spec:"seed=11,permanent=1.0" ]) ))
  in
  Printf.printf "  %-18s %8s %8s %8s %8s %8s %8s %9s %7s %7s\n" "plan" "served" "degraded"
    "fetches" "requests" "retries" "corrupt" "breaker" "boot" "reads";
  List.iter
    (fun r ->
      Printf.printf "  %-18s %7.1f%% %8d %8d %8d %8d %8d %9s %6.3fs %6.2fs\n" r.label
        (100.0 *. float_of_int r.served /. float_of_int r.total)
        r.degraded r.store_fetches r.client.Client.requests r.client.Client.retries
        r.client.Client.corrupt_fetches (Breaker.state_name r.breaker) r.boot_s r.wall_s)
    rows;
  (* the §VI contract: retryable-only fault plans with a sufficient
     budget must not lose a single ground-truth read, and permanent
     faults leave the breaker open rather than hammering the source *)
  List.iter
    (fun r ->
      if r.label <> "permanent r=1.0" && r.served <> r.total then
        failwith
          (Printf.sprintf "exp_faults: %s served %d of %d under a retryable-only plan"
             r.label r.served r.total);
      if r.label = "permanent r=1.0" && r.breaker = Breaker.Closed then
        failwith "exp_faults: permanent faults left the breaker closed")
    rows;
  let open Report.Json in
  let doc =
    Obj
      [ ("experiment", String "exp_faults");
        ("program", String p.Program.name);
        ("truth_reads", Int (List.hd rows).total);
        ( "note",
          String
            "CS1 under-debloated (60-test budget) so most ground-truth reads go remote; \
             misses served through a cacheless store client over a loopback server of the \
             source file, checked at boot (boot_s) and digested on the first miss (inside \
             wall_s); retry budget 48 attempts, virtual \
             deadline unbounded; every retryable-only row must serve 100%" );
        ( "rows",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("label", String r.label);
                     ("fault_plan", String r.plan_spec);
                     ("served", Int r.served);
                     ("total", Int r.total);
                     ( "served_fraction",
                       Float (float_of_int r.served /. float_of_int r.total) );
                     ("recall_served", Float (float_of_int r.served /. float_of_int r.total));
                     ("degraded_reads", Int r.degraded);
                     ("store_fetches", Int r.store_fetches);
                     ("client_requests", Int r.client.Client.requests);
                     ("client_range_gets", Int r.client.Client.range_gets);
                     ("client_fetched_chunks", Int r.client.Client.fetched_chunks);
                     ("client_retries", Int r.client.Client.retries);
                     ("client_corrupt_fetches", Int r.client.Client.corrupt_fetches);
                     ( "client_breaker_rejections",
                       Int r.client.Client.breaker_rejections );
                     ("breaker_state", String (Breaker.state_name r.breaker));
                     ("boot_s", Float r.boot_s);
                     ("wall_s", Float r.wall_s) ])
               rows) );
        ("phase_timings", phase_timings) ]
  in
  let out = json_path () in
  let oc = open_out out in
  output_string oc (to_string ~indent:2 doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (json saved to %s)\n" out;
  try Sys.remove src with Sys_error _ -> ()
