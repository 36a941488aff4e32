open Kondo_dataarray
open Kondo_workload
open Kondo_core

(** The hybrid recall booster sketched as future work in paper §VI:
    "let Kondo run for some more time and in parallel consult other
    fuzzing schedules, such as those available in AFL, to determine if
    any other missed offsets are detected."

    Runs Kondo's pipeline, then a mini-AFL campaign with a secondary
    budget; indices AFL discovers that Kondo missed are unioned in and
    the combined observation set is re-carved. *)

type result = {
  kondo : Pipeline.report;     (** the primary pipeline's report *)
  afl_extra : int;             (** indices AFL observed that Kondo had not *)
  approx : Index_set.t;        (** final I'_Θ after union and re-carving *)
}

val run : config:Config.t -> ?afl_budget:int -> Program.t -> result
(** [afl_budget] is the secondary campaign's execution budget (default:
    4x the primary schedule's evaluation count). *)
