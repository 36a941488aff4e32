open Kondo_dataarray
open Kondo_audit

(** Kondo's user-side runtime (paper §III, hardened per §VI).

    Boots an image in a directory, opens its (possibly debloated) data
    files, and serves reads.  An access to a carved-away offset raises
    the data-missing exception — or, when a miss-serving {!store_source}
    is plugged in (§VI), fetches the bytes from it the way a container
    runtime pulls missing offsets from a remote server.

    The runtime has exactly one miss path: the store source.  Recovery
    (retry with backoff, circuit breaking, fault injection, per-chunk
    digest verification) belongs to the source — in practice a
    [Kondo_store.Client], whether it talks to a [kondo serve] socket or
    to a loopback server over the image's own source files.  When the
    source cannot serve a miss the read degrades to a structured
    {!Degraded} error carrying the missing offset and the cause — never
    an arbitrary leaked exception. *)

type stats = {
  reads : int;          (** element reads served *)
  misses : int;         (** reads that hit carved-away data *)
  store_fetches : int;  (** misses satisfied by the store source *)
  store_bytes : int;    (** bytes served by the store source *)
  degraded_reads : int; (** misses the store source could not serve *)
}

val stats_fields : stats -> (string * int) list
(** The stats as [(field name, value)] pairs, in declaration order. *)

val stats_to_json : ?extra:(string * int) list -> stats -> string
(** {!stats_fields} as a JSON object; [extra] appends counters from
    surrounding layers (store clients, caches) to the same object. *)

type store_source = {
  source_name : string;  (** for messages, e.g. ["unix:/run/kondo.sock"] *)
  store_fetch :
    dst:string -> dataset:string -> offset:int -> length:int ->
    (bytes, Kondo_faults.Fault.error) result;
      (** Serve [length] bytes at [offset] of the named dataset's
          logical data section (the byte space {!Kondo_h5.File.missing}
          offsets are expressed in). *)
}
(** A pluggable miss-serving source — how the content-addressed chunk
    store ([Kondo_store.Source]) plugs into the runtime without the
    container layer depending on it. *)

exception Degraded of { missing : Kondo_h5.File.missing; cause : Kondo_faults.Fault.error }
(** The structured data-missing-with-cause failure of the miss path:
    which offset was missing locally, and why the store source could not
    serve it. *)

type t

val boot : ?tracer:Tracer.t -> ?store:store_source -> image:Image.t -> dir:string -> unit -> t
(** Materialize the image's data layers under [dir] and open them.
    [store] serves misses; without it a miss raises the data-missing
    exception.  [tracer] audits the container's reads. *)

val read_element : t -> dst:string -> dataset:string -> int array -> float
(** @raise Kondo_h5.File.Data_missing when the offset was carved away
    and no store source is plugged in.
    @raise Degraded when the store source failed to serve the miss. *)

val try_read_element :
  t -> dst:string -> dataset:string -> int array -> (float, exn) result
(** Non-raising variant: [Error] carries exactly the exception
    {!read_element} would have raised. *)

val read_slab :
  t -> dst:string -> dataset:string -> Hyperslab.t -> (int array -> float -> unit) -> unit

val file : t -> dst:string -> Kondo_h5.File.t
(** Direct access to an opened data file.
    @raise Invalid_argument for an unknown mount point, naming the
    requested destination and the available mounts. *)

val stats : t -> stats
(** A snapshot of this runtime's counters.  Each is linked to a
    process-wide [kondo_runtime_*_total] series, which sums every
    runtime. *)

val shutdown : t -> unit
