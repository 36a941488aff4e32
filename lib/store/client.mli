(** The fetching side of the serve/fetch protocol.

    Every exchange runs under the fault machinery: a circuit breaker
    gates the connection, {!Kondo_faults.Retry} wraps each request with
    capped backoff over virtual time, an optional
    {!Kondo_faults.Fault_plan} injects deterministic failures into the
    exchange (site ["store:<peer>"]), and every fetched chunk's digest
    is verified against the manifest id it was requested under — a
    mismatch counts as a corrupt fetch and is {e retried}, never
    surfaced as a success.  Adjacent missing chunks are batched into one
    BATCH range GET per contiguous run.

    Each fetched chunk is copied once, out of the response message, into
    an immutable string: it is verified in place, and that same string
    is what {!fetch_chunks} returns and what the client cache keeps.
    {!read_bytes} returns a fresh buffer the caller owns. *)

type stats = {
  requests : int;           (** protocol rounds attempted *)
  range_gets : int;         (** BATCH requests issued *)
  fetched_chunks : int;     (** verified chunks received *)
  fetched_bytes : int;
  corrupt_fetches : int;    (** digest/shape mismatches detected (then retried) *)
  retries : int;
  breaker_rejections : int; (** exchanges the client's circuit breaker refused *)
  cache_hits : int;         (** chunks served from the local chunk cache *)
}

val stats_fields : stats -> (string * int) list
(** The stats as [(field name, value)] pairs, in declaration order. *)

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
(** A snapshot of this client's counters.  Each but [breaker_rejections]
    is linked to a process-wide [kondo_store_client_*_total] series;
    [breaker_rejections] is the client's breaker's count
    ([kondo_breaker_rejections_total]). *)

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
    was new to the server.  The payload is read, not kept: the request
    message is its copy, so the caller may reuse it afterwards. *)

val fetch_chunks :
  t -> Chunk.manifest -> first:int -> count:int ->
  (string array, Kondo_faults.Fault.error) result
(** Chunks [first .. first+count-1] in one BATCH round trip, each
    verified against the manifest.  Any missing chunk is a permanent
    error; any corrupt chunk is a retryable one.  The strings are the
    ones decoded from the response, shared with the client cache when
    there is one. *)

val read_bytes :
  t -> Chunk.manifest -> offset:int -> length:int ->
  (bytes, Kondo_faults.Fault.error) result
(** The blob's bytes [\[offset, offset+length)], assembled from cached
    chunks plus one range GET per contiguous run of missing chunks.
    @raise Invalid_argument when the range exceeds the blob. *)
