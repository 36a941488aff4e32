open Kondo_prng
open Kondo_dataarray
open Kondo_workload

type stop_reason = Max_iterations | Stagnation | Time_budget

let stop_name = function
  | Max_iterations -> "max-iterations"
  | Stagnation -> "stagnation"
  | Time_budget -> "time-budget"

(* Schedule counters: one registry entry per Alg.-1 cost/yield quantity
   the scheduler paper (PAPERS.md) says you must measure to tune a fuzz
   scheduler.  Flushed in one batch per run, not per iteration. *)
module Sched_obs = struct
  open Kondo_obs

  let rounds =
    Registry.counter ~help:"Completed fuzz schedules (rounds)" Registry.default
      "kondo_schedule_rounds_total"

  let evaluations =
    Registry.counter ~help:"Debloat tests executed" Registry.default
      "kondo_schedule_evaluations_total"

  let useful =
    Registry.counter ~help:"Evaluations classified useful" Registry.default
      "kondo_schedule_useful_total"

  let restarts =
    Registry.counter ~help:"Random restarts (queue re-seeds)" Registry.default
      "kondo_schedule_restarts_total"

  let ee_moves =
    Registry.counter ~help:"Plain exploit/explore mutations proposed" Registry.default
      "kondo_schedule_ee_moves_total"

  let boundary_moves =
    Registry.counter ~help:"Boundary-directed mutations proposed" Registry.default
      "kondo_schedule_boundary_moves_total"

  let stagnation_stops =
    Registry.counter ~help:"Runs stopped by the stagnation rule" Registry.default
      "kondo_schedule_stagnation_stops_total"

  let run_section = Obs.section ~cat:"schedule" "schedule.run"
  let round_section = Obs.section ~cat:"schedule" "schedule.round"
end

type outcome = { iter : int; params : float array; useful : bool; new_offsets : int }

type result = {
  indices : Index_set.t;
  trace : outcome list;
  iterations : int;
  evaluations : int;
  useful_count : int;
  stopped : stop_reason;
  elapsed : float;
}

let key_of_params v = Array.to_list (Array.map (fun x -> int_of_float (Float.round x)) v)

let uniform_sample rng space =
  Array.map (fun (lo, hi) -> Float.round (Rng.float_in rng lo hi)) space

let clamp space v =
  Array.mapi
    (fun k x ->
      let lo, hi = space.(k) in
      Float.max lo (Float.min hi (Float.round x)))
    v

(* Plain exploit/explore: jump within a frame whose radius is drawn from
   [dist] independently per dimension. *)
let uniform_frame rng space v (dlo, dhi) =
  clamp space
    (Array.map
       (fun x ->
         let d = Rng.float_in rng dlo dhi in
         x +. Rng.float_in rng (-.d) d)
       v)

(* Boundary-based move: step toward the nearest opposite-type cluster
   center, frame scaled by the distance to it — far from the boundary we
   take long strides, near it we densify (paper §IV-A2). *)
let greedy_frame rng space v center dist_to_center (dlo, dhi) diameter =
  let scale = Float.max 0.25 (Float.min 4.0 (dist_to_center /. Float.max diameter 1.0)) in
  let frame = Rng.float_in rng dlo dhi *. scale in
  let toward = Rng.float rng 1.0 in
  clamp space
    (Array.mapi
       (fun k x ->
         let dir = center.(k) -. x in
         let len = Float.max 1.0 dist_to_center in
         x +. (dir /. len *. frame *. toward) +. Rng.float_in rng (-.frame /. 2.0) (frame /. 2.0))
       v)

(* One schedule run: its result, and the end attributes of its
   [schedule.run] span. *)
let fuzz ~config p ~eval =
  let cfg : Config.t = config in
  (* Frames and the cluster diameter track the parameter-space extent
     (Config.autoscale): the Fig. 5 distances are tuned for extent 128. *)
  let cfg =
    let extent =
      Array.fold_left
        (fun acc (lo, hi) -> Float.max acc (hi -. lo))
        1.0 p.Program.param_space
    in
    let s = Config.scale_for cfg extent in
    let sc (a, b) = (a *. s, b *. s) in
    { cfg with
      Config.u_dist = sc cfg.Config.u_dist;
      n_dist = sc cfg.Config.n_dist;
      diameter = cfg.Config.diameter *. s }
  in
  let rng = Rng.create cfg.Config.seed in
  let space = p.Program.param_space in
  let is = Index_set.create p.Program.shape in
  let queue : float array Queue.t = Queue.create () in
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 4096 in
  let cl_u = Cluster.create ~diameter:cfg.Config.diameter in
  let cl_n = Cluster.create ~diameter:cfg.Config.diameter in
  let trace = ref [] in
  let evaluations = ref 0 in
  let useful_count = ref 0 in
  let new_itr = ref 0 in
  let epsilon = ref cfg.Config.epsilon0 in
  let restarts = ref 0 in
  let ee_moves = ref 0 in
  let boundary_moves = ref 0 in
  let t0 = Kondo_obs.Clock.(now real) in
  let enqueue v =
    let key = key_of_params v in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add v queue
    end
  in
  let random_restart () =
    incr restarts;
    Queue.clear queue;
    (* Restarted seeds bypass the seen-filter: localization is broken by
       force-reseeding even if a value was proposed before. *)
    for _ = 1 to cfg.Config.n_init do
      Queue.add (uniform_sample rng space) queue
    done
  in
  let mutate v useful =
    let dist = if useful then cfg.Config.u_dist else cfg.Config.n_dist in
    let reps = if useful then cfg.Config.u_reps else cfg.Config.n_reps in
    List.init reps (fun _ ->
        if cfg.Config.schedule = Config.Ee || Rng.bernoulli rng !epsilon then begin
          incr ee_moves;
          uniform_frame rng space v dist
        end
        else begin
          let opposite = if useful then cl_n else cl_u in
          match Cluster.nearest opposite v with
          | None ->
            incr ee_moves;
            uniform_frame rng space v dist
          | Some (center, d) ->
            incr boundary_moves;
            greedy_frame rng space v center d dist cfg.Config.diameter
        end)
  in
  let stopped = ref Max_iterations in
  let itr = ref 0 in
  (try
     random_restart ();
     while !itr < cfg.Config.max_iter do
       incr itr;
       (match cfg.Config.time_budget with
       | Some budget when Kondo_obs.Clock.(now real) -. t0 > budget ->
         stopped := Time_budget;
         raise Exit
       | _ -> ());
       if Queue.is_empty queue || !itr mod cfg.Config.restart = 0 then random_restart ();
       let v = Queue.pop queue in
       Hashtbl.replace seen (key_of_params v) ();
       let useful, fresh = eval v is in
       incr evaluations;
       if useful then incr useful_count;
       trace := { iter = !itr; params = Array.copy v; useful; new_offsets = fresh } :: !trace;
       if fresh > 0 then new_itr := 0 else incr new_itr;
       if !new_itr >= cfg.Config.stop_iter then begin
         stopped := Stagnation;
         raise Exit
       end;
       if useful then Cluster.add cl_u v else Cluster.add cl_n v;
       List.iter enqueue (mutate v useful);
       if !itr mod cfg.Config.decay_iter = 0 then epsilon := !epsilon *. cfg.Config.decay
     done
   with Exit -> ());
  let open Kondo_obs in
  Registry.inc Sched_obs.rounds;
  Registry.inc ~by:!evaluations Sched_obs.evaluations;
  Registry.inc ~by:!useful_count Sched_obs.useful;
  Registry.inc ~by:!restarts Sched_obs.restarts;
  Registry.inc ~by:!ee_moves Sched_obs.ee_moves;
  Registry.inc ~by:!boundary_moves Sched_obs.boundary_moves;
  if !stopped = Stagnation then Registry.inc Sched_obs.stagnation_stops;
  ( { indices = is;
      trace = List.rev !trace;
      iterations = !itr;
      evaluations = !evaluations;
      useful_count = !useful_count;
      stopped = !stopped;
      elapsed = Kondo_obs.Clock.(now real) -. t0 },
    fun () ->
      [ ("iterations", string_of_int !itr);
        ("evaluations", string_of_int !evaluations);
        ("useful", string_of_int !useful_count);
        ("non_useful", string_of_int (!evaluations - !useful_count));
        ("ee_moves", string_of_int !ee_moves);
        ("boundary_moves", string_of_int !boundary_moves);
        ("restarts", string_of_int !restarts);
        ("epsilon", Printf.sprintf "%.4f" !epsilon);
        ("stagnation", string_of_int !new_itr);
        ("stopped", stop_name !stopped) ] )

let run_with_eval ~config p ~eval =
  let result, _ =
    Kondo_obs.Obs.span Sched_obs.run_section
      ~args:
        [ ("program", p.Program.name);
          ("seed", string_of_int config.Config.seed);
          ("schedule", Config.schedule_name config.Config.schedule) ]
      ~result_args:(fun (_, end_args) -> end_args ())
      (fun () -> fuzz ~config p ~eval)
  in
  result

(* Debloat-test evaluator that memoizes access plans: distinct parameter
   values frequently share a plan (e.g. ARD's redundant temporal
   parameter), and re-enumerating a large hyperslab contributes nothing. *)
let plan_evaluator p =
  let plans_seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  fun v is ->
    let plan = p.Program.plan v in
    match plan with
    | [] -> (false, 0)
    | slabs ->
      let key = String.concat ";" (List.map Kondo_dataarray.Hyperslab.to_string slabs) in
      let useful = Program.is_useful p v in
      if Hashtbl.mem plans_seen key then (useful, 0)
      else begin
        Hashtbl.add plans_seen key ();
        let before = Index_set.cardinal is in
        List.iter (fun slab -> Index_set.add_slab is slab) slabs;
        (useful, Index_set.cardinal is - before)
      end

let run ~config p = run_with_eval ~config p ~eval:(plan_evaluator p)

let round_seed ~base round =
  (* Pure in (base, round): round r always fuzzes with the same seed, so
     campaigns resume reproducibly and workers need no shared state. *)
  Int64.to_int (Kondo_prng.Rng.bits64 (Kondo_prng.Rng.split_at base round))

let run_rounds ~config p ~first_round ~rounds =
  if rounds < 0 then invalid_arg "Schedule.run_rounds: rounds must be >= 0";
  let pool = Kondo_parallel.Pool.create ~jobs:config.Config.jobs in
  let acc = Index_set.create p.Program.shape in
  Kondo_parallel.Pool.map_reduce pool ~n:rounds
    ~map:(fun i ->
      let round = first_round + i in
      let seed = round_seed ~base:config.Config.seed round in
      Kondo_obs.Obs.span Sched_obs.round_section
        ~args:[ ("round", string_of_int round); ("seed", string_of_int seed) ]
        ~result_args:(fun indices ->
          [ ("discovered_indices", string_of_int (Index_set.cardinal indices)) ])
        (fun () -> (run ~config:(Config.with_seed config seed) p).indices))
    ~reduce:(fun acc indices ->
      Index_set.union_into acc indices;
      acc)
    ~init:acc
