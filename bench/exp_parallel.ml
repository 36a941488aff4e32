(* Parallel engine experiment: sequential vs domain-parallel wall time.

   Workload: the domain-parallel fan-out paths introduced with
   `kondo_parallel` — (a) a multi-round fuzz campaign (independent
   Alg. 1 schedules whose discoveries are unioned) and (b) multi-program
   debloating (one fuzz+carve pipeline per program).  Both are measured
   at jobs = 1 and jobs = 4 (plus the hardware domain count when it
   differs), the parity of the accumulated index sets is asserted, and
   everything is recorded in artifacts/BENCH_parallel.json.

   Speedup is hardware-bound: on a single-core container the parallel
   run cannot beat the sequential one; on >= 4 cores the workload is
   embarrassingly parallel and approaches the domain count. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_core
open Exp_common

let rounds = 8
let campaign_iters = 4000

let campaign_workload ~jobs =
  let p = Stencils.cs ~n:384 1 in
  let config =
    { Config.default with Config.seed = 7; max_iter = campaign_iters;
      stop_iter = campaign_iters; jobs }
  in
  let t0 = now () in
  let c = Campaign.extend ~config p (Campaign.fresh p) rounds in
  (now () -. t0, Campaign.observed c)

let many_programs () =
  [ Program.with_dataset (Stencils.ldc2d ~n:192 ()) "ldc";
    Program.with_dataset (Stencils.rdc2d ~n:192 ()) "rdc";
    Program.with_dataset (Stencils.prl2d ~n:192 ()) "prl";
    Program.with_dataset (Stencils.cs ~n:192 2) "cs2" ]

let many_workload ~jobs =
  let programs = many_programs () in
  let src = Filename.temp_file "exp_parallel_src" ".kh5" in
  let dst = Filename.temp_file "exp_parallel_dst" ".kh5" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove src with Sys_error _ -> ());
      try Sys.remove dst with Sys_error _ -> ())
    (fun () ->
      let mk p =
        Kondo_h5.Dataset.dense ~name:p.Program.dataset ~dtype:p.Program.dtype
          ~shape:p.Program.shape ()
      in
      Kondo_h5.Writer.write src (List.map (fun p -> (mk p, Datafile.fill)) programs);
      let config =
        { Config.default with Config.seed = 7; max_iter = 2500; stop_iter = 2500; jobs }
      in
      let t0 = now () in
      let reports = Pipeline.debloat_file_many ~config programs ~src ~dst in
      let elapsed = now () -. t0 in
      let observed =
        List.map (fun (name, r) -> (name, Index_set.cardinal r.Pipeline.approx)) reports
      in
      (elapsed, observed))

let json_path () =
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Filename.concat dir "BENCH_parallel.json"

let run () =
  header "parallel" "Domain-parallel fan-out: sequential vs parallel wall time";
  let recommended = Kondo_parallel.Pool.default_jobs () in
  Printf.printf "  hardware domains: %d\n%!" recommended;
  let ((t_camp_1, obs_1), (t_camp_4, obs_4), (t_many_1, many_obs_1), (t_many_4, many_obs_4)),
      phase_timings =
    with_phases (fun () ->
        let camp_1 = phase "campaign_jobs1" (fun () -> campaign_workload ~jobs:1) in
        let camp_4 = phase "campaign_jobs4" (fun () -> campaign_workload ~jobs:4) in
        let many_1 = phase "debloat_many_jobs1" (fun () -> many_workload ~jobs:1) in
        let many_4 = phase "debloat_many_jobs4" (fun () -> many_workload ~jobs:4) in
        (camp_1, camp_4, many_1, many_4))
  in
  let camp_parity = Index_set.equal obs_1 obs_4 in
  Printf.printf "  campaign (%d rounds x %d iters): jobs=1 %.2fs, jobs=4 %.2fs — %.2fx, parity %b\n%!"
    rounds campaign_iters t_camp_1 t_camp_4 (t_camp_1 /. t_camp_4) camp_parity;
  let many_parity = many_obs_1 = many_obs_4 in
  Printf.printf "  debloat_file_many (4 programs): jobs=1 %.2fs, jobs=4 %.2fs — %.2fx, parity %b\n%!"
    t_many_1 t_many_4 (t_many_1 /. t_many_4) many_parity;
  if not (camp_parity && many_parity) then
    failwith "exp_parallel: parallel run diverged from the sequential one";
  let speedup seq par = seq /. Float.max 1e-9 par in
  let open Report.Json in
  let workload name seq par parity =
    Obj
      [ ("workload", String name);
        ("seq_s", Float seq);
        ("par_s", Float par);
        ("jobs", Int 4);
        ("speedup", Float (speedup seq par));
        ("deterministic_parity", Bool parity) ]
  in
  let doc =
    Obj
      [ ("experiment", String "exp_parallel");
        ("hardware_domains", Int recommended);
        ( "note",
          String
            "speedup is hardware-bound: ~1.0x on a single core, approaching the domain \
             count on >= 4 cores; parity is asserted in all cases" );
        ( "workloads",
          List
            [ workload
                (Printf.sprintf "campaign_%dx%d" rounds campaign_iters)
                t_camp_1 t_camp_4 camp_parity;
              workload "debloat_file_many_4p" t_many_1 t_many_4 many_parity ] );
        ("phase_timings", phase_timings) ]
  in
  let out = json_path () in
  let oc = open_out out in
  output_string oc (to_string ~indent:2 doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (json saved to %s)\n" out
