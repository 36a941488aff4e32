(** Circuit breaker: stop hammering a failing remote.

    Classic closed / open / half-open state machine over a virtual
    clock supplied by the caller ([now_ms]), so transitions are exactly
    reproducible.  [failure_threshold] consecutive failures trip the
    breaker open; after [cooldown_ms] the next caller is let through as
    a half-open probe; [success_threshold] consecutive probe successes
    close it again, any probe failure re-opens it. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  cooldown_ms : float;      (** open time before a half-open probe *)
  success_threshold : int;  (** probe successes required to close *)
}

val default : config
(** 5 failures, 1 s cooldown, 2 probe successes. *)

type stats = {
  trips : int;       (** closed/half-open → open transitions *)
  recoveries : int;  (** half-open → closed transitions *)
  rejections : int;  (** calls refused while open *)
}

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument on nonsensical config fields. *)

val state : t -> state
val stats : t -> stats
(** A snapshot of this breaker's counters.  Each is linked to a
    process-wide [kondo_breaker_*_total] series, which sums every
    breaker. *)

val state_name : state -> string

val allow : t -> now_ms:float -> bool
(** May a call proceed now?  Counts a rejection when refusing; moves an
    open breaker whose cooldown elapsed to half-open (and allows the
    probe). *)

val record_success : t -> unit
val record_failure : t -> now_ms:float -> unit
