open Kondo_dataarray
open Kondo_workload

(** Resumable fuzzing campaigns.

    §VI suggests closing the recall gap by "let[ting] Kondo run for some
    more time": a campaign accumulates the observed index set across any
    number of fuzzing rounds — each round a full Alg. 1 schedule with a
    fresh seed — and persists the accumulated state to disk so later
    sessions extend, rather than restart, the exploration.  Carving is
    deferred to the moment a debloated file is actually produced. *)

type t

val fresh : Program.t -> t

val observed : t -> Index_set.t
val rounds : t -> int
val program_name : t -> string

val extend : config:Config.t -> Program.t -> t -> int -> t
(** [extend ~config p t k] runs [k] more schedule rounds on
    [config.jobs] domains and folds their discoveries in.  Round [r] is
    seeded purely from [(config.seed, r)] (see {!Schedule.run_rounds}),
    so the accumulated set is bit-identical for any jobs count and any
    way of splitting the rounds across sessions. *)

val carve : config:Config.t -> Program.t -> t -> Index_set.t
(** Carve the accumulated observations into the current [I'_Θ]. *)

val save : t -> string -> unit
(** Atomic and crash-safe: the state is CRC-framed
    ({!Kondo_faults.Frame}), written to [path ^ ".tmp"], flushed, and
    renamed over [path] — a crash at any point leaves either the old or
    the new complete state, never a torn file. *)

val load : Program.t -> string -> t
(** Load a v2 (CRC-framed) state file; a v1 file fails as bad magic.
    A file with a truncated or corrupted tail is {e salvaged}: every intact frame of
    the observed set is kept and the lost tail counts as unobserved, so
    the campaign still resumes.  @raise Invalid_argument when the file
    belongs to a different program or shape, or is not a campaign at
    all; the message names the offending file and the program. *)

val salvage : Program.t -> string -> t * bool
(** Like {!load} but total over corruption: a missing, torn, or
    unrecognizable file yields [(fresh p, false)] instead of raising;
    the boolean reports whether the file was fully intact.  Still
    raises on a valid campaign for a {e different} program — that is a
    user error, not corruption. *)
