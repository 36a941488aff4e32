(** Wall-clock abstraction for every timed observation.

    Instrumentation reads time through a [Clock.t] instead of calling
    the system clock directly, so tests and CI byte-identity checks
    can substitute a {e virtual} clock: a deterministic counter that
    starts at [start] and advances by [step] on every read.  Two virtual
    clocks with the same parameters produce the same timestamp sequence
    on any machine, making trace and metrics golden files byte-stable. *)

type t

val real : t
(** The system's wall clock; {!advance} is a no-op. *)

val virtual_ : ?start:float -> ?step:float -> unit -> t
(** A deterministic clock.  Every {!now} returns the current value and
    then advances it by [step] (default [0.0]); {!advance} adds an
    explicit delta.  Defaults: [start = 0.0].  Domain-safe. *)

val now : t -> float
(** The current time in seconds (Unix epoch for {!real}). *)

val advance : t -> float -> unit
(** Advance a virtual clock by a delta in seconds; no-op on {!real}.
    @raise Invalid_argument on a negative delta. *)

val is_virtual : t -> bool
