open Kondo_dataarray
open Kondo_workload

(** The Brute-Force baseline (paper §V-C).

    Executes the program on every integer parameter valuation of Θ in
    row-major order, recording accessed indices, until Θ is exhausted or
    a budget expires.  Given enough time BF computes the exact [I_Θ]
    (precision and recall 1); under a budget its recall is the fraction
    of the truth the enumerated prefix happens to cover. *)

type result = {
  indices : Index_set.t;
  evaluations : int;
  exhausted : bool;   (** whole Θ enumerated *)
}

val run : ?time_budget:float -> ?max_evals:int -> Program.t -> result
(** Budgets: wall-clock seconds and/or evaluation count; omitted budgets
    are unbounded. *)
