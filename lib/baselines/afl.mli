open Kondo_dataarray
open Kondo_workload

(** Mini-AFL: the code-coverage-guided fuzzing baseline (paper §V-C).

    A faithful small-scale reimplementation of American Fuzzy Lop's
    feedback loop: a queue of interesting inputs, a deterministic
    mutation stage (walking bitflips, byte arithmetic, interesting
    values) followed by stacked havoc mutations, and an edge-coverage
    map deciding which mutants are kept.

    Re-targeting to data coverage follows the paper exactly: the program
    is instrumented with one pseudo-branch per possible array index
    ({!Program.coverage}), so an input "covers" an index when its run
    accesses it.  The two pathologies the paper attributes to AFL arise
    naturally here: inputs are raw bytes, so most mutations decode to
    out-of-range or duplicate parameter values, and per-execution
    coverage bookkeeping over the index checks costs real time. *)

type result = {
  indices : Index_set.t;   (** indices whose pseudo-branch fired *)
  executions : int;
  queue_entries : int;     (** inputs that triggered new coverage *)
  coverage_edges : int;    (** distinct edges seen *)
}

val run : ?seed:int -> ?time_budget:float -> ?max_execs:int -> Program.t -> result

val decode_params : Program.t -> bytes -> float array
(** How raw input bytes map to parameter values (one 8-byte ASCII field per
    parameter, unclamped — exposed for tests). *)
