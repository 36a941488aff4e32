(** Deterministic pseudo-random number generation.

    Kondo's fuzz schedules, the baselines, and the experiment drivers all
    consume randomness through this module so that every run is reproducible
    from a single integer seed.  The generator is SplitMix64 (Steele et al.,
    OOPSLA 2014): a 64-bit state advanced by a Weyl sequence and finalized
    with an avalanche mix.  It is small, fast, and passes BigCrush, which is
    more than sufficient for fuzz scheduling. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Two
    generators created from the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator whose future stream equals [t]'s. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are statistically independent. *)

val split_at : int -> int -> t
(** [split_at seed i] is the generator the [i]-th call of [split] on
    [create seed] would return ([i >= 1]), computed as a pure O(1)
    function of [(seed, i)].  Parallel workers use it to seed themselves
    from their task index, so the result stream is independent of how
    tasks were distributed over domains. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal variate (Box–Muller). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val byte : t -> char
(** Uniform byte. *)
