open Kondo_dataarray
open Kondo_workload

(** The fuzz schedule (paper Algorithm 1).

    Starting from [n_init] uniform samples of Θ, the schedule dequeues a
    parameter value, runs the debloat test (recording the indices it
    would access), clusters the value as useful or non-useful, and
    enqueues mutants.  Mutation is ε-greedy between a plain
    exploit/explore frame move and a boundary-directed move toward the
    nearest opposite-type cluster; ε decays geometrically.  Random
    restarts re-seed the queue every [restart] iterations.  The run
    terminates on [max_iter], on [stop_iter] iterations without a newly
    discovered offset, or on the wall-clock budget. *)

type stop_reason = Max_iterations | Stagnation | Time_budget

type outcome = { iter : int; params : float array; useful : bool; new_offsets : int }

type result = {
  indices : Index_set.t;      (** IS = ∪ I_v over all evaluated values *)
  trace : outcome list;       (** evaluation order (Fig. 4's scatter data) *)
  iterations : int;
  evaluations : int;          (** debloat tests actually run *)
  useful_count : int;
  stopped : stop_reason;
}

val run : config:Config.t -> Program.t -> result
(** Deterministic for a fixed [config.seed] (when no time budget cuts the
    run short). *)

val run_with_eval :
  config:Config.t ->
  Program.t ->
  eval:(float array -> Index_set.t -> bool * int) ->
  result
(** Like {!run} but with a custom debloat test: [eval v is] runs the test
    for [v], adds discovered indices into [is], and returns (useful,
    newly-added count).  {!run} uses a plan-memoizing evaluator. *)

val run_rounds : config:Config.t -> Program.t -> first_round:int -> rounds:int -> Index_set.t
(** [run_rounds ~config p ~first_round ~rounds] runs [rounds] independent
    full schedules — round [r] seeded by a pure function of
    [(config.seed, r)] via {!Kondo_prng.Rng.split_at} — on
    [config.jobs] domains, and unions their discoveries in round order.
    The result is bit-identical for every [jobs] value; a round number
    maps to the same seed in every session, so campaigns that resume at
    [first_round > 1] reproduce exactly. *)
