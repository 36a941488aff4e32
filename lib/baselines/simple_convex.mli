open Kondo_dataarray
open Kondo_workload
open Kondo_core

(** The Simple-Convex baseline (paper §V-C, Fig. 8's "SC").

    Kondo's own fuzzer feeding a {e single} global convex hull — the
    standard hull computation of the literature with no cell split and
    no bottom-up merging.  On disjoint or holed subsets the one hull
    swallows the gaps, which is exactly the precision loss Fig. 8
    contrasts Kondo against. *)

type result = {
  fuzz : Schedule.result;
  approx : Index_set.t;
  hull_vertices : int;  (** 0 when nothing was observed *)
}

val run : config:Config.t -> Program.t -> result
