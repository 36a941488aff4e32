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
    to a loopback server over dense source files on disk.  When the
    source cannot serve a miss the read degrades to a structured
    {!Degraded} error carrying the missing offset and the cause — never
    an arbitrary leaked exception.

    {b The block overlay.}  Each mount keeps an overlay of verified
    blocks, filled lazily the way a debloated filesystem is served at
    block granularity.  A block is the {!block_size} bytes at a
    {!block_size}-aligned offset of a dataset's logical data section;
    the last block stops at the end of the section.  A miss whose block
    is absent makes one [store_fetch] for the whole block; every later
    miss into that block is decoded from the overlay, with no store
    round trip, for the lifetime of the mount.

    - {b What is cached.}  A block is kept only when [store_fetch]
      returns [Ok] with exactly the requested length.  A failed or
      wrong-sized fetch degrades the read that asked for it and caches
      nothing, so the next miss into that block asks the source again.
    - {b Memory.}  The overlay holds only the blocks missed into, so it
      never exceeds the dataset's logical size; nothing that size is
      allocated up front.  Mounts do not share blocks, even for the same
      dataset name.
    - {b Lifetime.}  The overlay is dropped at {!shutdown}. *)

type stats = {
  reads : int;          (** element reads served *)
  misses : int;         (** reads that hit carved-away data *)
  store_fetches : int;  (** misses served, from the overlay or a block fetch *)
  store_bytes : int;    (** element bytes of the misses served *)
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

val block_size : int
(** The overlay's block size in bytes (4096).  It equals
    [Kondo_store.Chunk.default_size], so with default chunking a block
    fetch is exactly one chunk and one range GET. *)

exception Degraded of { missing : Kondo_h5.File.missing; cause : Kondo_faults.Fault.error }
(** The structured data-missing-with-cause failure of the miss path:
    which offset was missing locally, and why the store source could not
    serve it. *)

type t

val boot : ?tracer:Tracer.t -> ?store:store_source -> image:Image.t -> dir:string -> unit -> t
(** Materialize the image's data layers under [dir] and open them.
    [store] serves misses; without it a miss raises the data-missing
    exception.  [tracer] audits the container's reads. *)

val of_files :
  ?tracer:Tracer.t -> ?store:store_source -> (string * string) list -> t
(** {!boot} over data files already on disk: open each [(dst, path)]
    in place, mounted at [dst], with nothing copied. *)

val read_element : t -> dst:string -> dataset:string -> int array -> float
(** @raise Kondo_h5.File.Data_missing when the offset was carved away
    and no store source is plugged in.
    @raise Degraded when the store source failed to serve the miss. *)

val try_read_element :
  t -> dst:string -> dataset:string -> int array -> (float, exn) result
(** Non-raising variant: [Error] carries exactly the exception
    {!read_element} would have raised. *)

val file : t -> dst:string -> Kondo_h5.File.t
(** Direct access to an opened data file.
    @raise Invalid_argument for an unknown mount point, naming the
    requested destination and the available mounts. *)

val stats : t -> stats
(** A snapshot of this runtime's counters.  Each is linked to a
    process-wide [kondo_runtime_*_total] series, which sums every
    runtime. *)

val fetched_blocks : t -> int
(** Blocks that entered this runtime's overlays
    ([kondo_runtime_fetched_blocks_total] sums every runtime).  Kept out
    of {!stats}, which counts element reads as any per-element runtime
    would. *)

val shutdown : t -> unit
(** Close the data files and drop every mount's overlay. *)
