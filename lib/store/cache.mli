(** Byte-budgeted LRU cache with single-flight coalescing.

    One table and one LRU list under one mutex hold at most
    [budget_bytes] of payload: any entries that total at most the
    budget are kept, whatever their ids, and an entry larger than the
    whole budget is served but not retained.

    {!get_or_fetch} is single-flight: when concurrent callers miss on
    the same key, exactly one runs the upstream fetch while the others
    block on a condition variable and receive the same outcome — one
    upstream fetch, identical bytes, the thundering herd collapsed.
    Fetch errors are handed to every coalesced waiter but never
    cached.

    Entries are immutable [string]s, shared rather than copied: {!put}
    and a leader's fetch insert the string itself, and {!get} and
    {!get_or_fetch} hand that same string to every hit and every
    coalesced waiter.  The only copy the cache makes is {!read_into}'s
    slice, into the caller's buffer. *)

type stats = {
  hits : int;
  misses : int;          (** lookups that found nothing (coalesced waiters included) *)
  evictions : int;       (** entries dropped to respect the byte budget *)
  insertions : int;      (** entries accepted into the LRU *)
  rejections : int;      (** payloads larger than the budget, not retained *)
  single_flights : int;  (** upstream fetches actually run by {!get_or_fetch} *)
  coalesced : int;       (** callers that waited on another caller's fetch *)
  current_bytes : int;
  entries : int;
}

type t

val create : ?owner:[ `Client | `Server ] -> budget_bytes:int -> unit -> t
(** [owner] (default [`Client]) labels the process-wide
    [kondo_store_cache_*] series this cache's counters are linked to:
    [owner="server"] for the cache of a {!Server}, [owner="client"] for
    every other.
    @raise Invalid_argument when [budget_bytes < 0]. *)

val budget : t -> int

val get : t -> Chunk.id -> string option
val read_into : t -> Chunk.id -> src_off:int -> bytes -> dst_off:int -> len:int -> bool
(** [read_into t id ~src_off dst ~dst_off ~len] is {!get} that copies only
    [len] bytes of the cached chunk, from [src_off], into [dst] at
    [dst_off], under the lock.  Returns whether it hit; hit and miss
    accounting is that of {!get}.
    @raise Invalid_argument when the slice is outside the chunk or [dst]
    (after counting the hit). *)

val put : t -> Chunk.id -> string -> unit

val get_or_fetch :
  t -> Chunk.id -> fetch:(unit -> (string, Kondo_faults.Fault.error) result) ->
  (string, Kondo_faults.Fault.error) result
(** Cache hit, or run (or wait on) the single upstream fetch for this
    key.  A successful fetch is inserted before waiters wake. *)

val stats : t -> stats
(** A snapshot of this cache's counters and current size. *)

val clear : t -> unit
