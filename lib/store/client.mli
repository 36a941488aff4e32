(** The fetching side of the serve/fetch protocol.

    Every exchange runs under the fault machinery: a circuit breaker
    gates the connection, {!Kondo_faults.Retry} wraps each request with
    capped backoff over virtual time, an optional
    {!Kondo_faults.Fault_plan} injects deterministic failures into the
    exchange (site ["store:<peer>"]), and every fetched chunk's digest
    is verified against the manifest id it was requested under — a
    mismatch counts as a corrupt fetch and is {e retried}, never
    surfaced as a success.  Adjacent missing chunks are batched into one
    BATCH range GET per contiguous run. *)

type stats = {
  mutable requests : int;        (** protocol rounds attempted *)
  mutable range_gets : int;      (** BATCH requests issued *)
  mutable fetched_chunks : int;  (** verified chunks received *)
  mutable fetched_bytes : int;
  mutable corrupt_fetches : int; (** digest/shape mismatches detected (then retried) *)
  mutable retries : int;
  mutable breaker_rejections : int;
  mutable cache_hits : int;      (** chunks served from the local chunk cache *)
}

type t

val connect :
  ?retry:Kondo_faults.Retry.policy ->
  ?breaker:Kondo_faults.Breaker.config ->
  ?faults:Kondo_faults.Fault_plan.t ->
  ?cache:Cache.t ->
  Transport.conn ->
  t
(** [cache] (optional) holds verified chunks client-side, so repeated
    misses into the same chunk cost one round trip. *)

val close : t -> unit
val stats : t -> stats

val peer : t -> string
(** The transport's peer description, e.g. ["unix:/run/kondo.sock"]. *)

val breaker_state : t -> Kondo_faults.Breaker.state

val manifest : t -> name:string -> (Chunk.manifest, Kondo_faults.Fault.error) result

val stat : t -> (Proto.stat_info, Kondo_faults.Fault.error) result

val scrape : t -> (string, Kondo_faults.Fault.error) result
(** STATS op: the server's metrics registry in Prometheus text
    exposition format. *)

val put : t -> bytes -> (Chunk.id * bool, Kondo_faults.Fault.error) result
(** Content-address a payload and PUT it; returns its id and whether it
    was new to the server. *)

val fetch_chunks :
  t -> Chunk.manifest -> first:int -> count:int ->
  (bytes array, Kondo_faults.Fault.error) result
(** Chunks [first .. first+count-1] in one BATCH round trip, each
    verified against the manifest.  Any missing chunk is a permanent
    error; any corrupt chunk is a retryable one. *)

val read_bytes :
  t -> Chunk.manifest -> offset:int -> length:int ->
  (bytes, Kondo_faults.Fault.error) result
(** The blob's bytes [\[offset, offset+length)], assembled from cached
    chunks plus one range GET per contiguous run of missing chunks.
    @raise Invalid_argument when the range exceeds the blob. *)
