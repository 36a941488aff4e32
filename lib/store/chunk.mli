(** Fixed-size chunking of debloated payloads, content-addressed with
    {!Kondo_faults.Fnv} digests.

    A blob (typically the dense logical data section of one dataset of
    the un-debloated source file) is tiled into fixed-size chunks; each
    chunk's id {e is} its {!Kondo_faults.Fnv.hash_bytes} digest, so
    the store is content-addressed and a fetched payload can be verified
    against the id it was requested under.  The manifest — chunk size,
    blob length, the id of every chunk, and a root digest folded with
    {!Kondo_faults.Fnv.hash_pair} — is the small piece of metadata
    a client needs to map byte offsets to chunk ids and to verify every
    payload it receives. *)

type id = int64

val digest : bytes -> id
(** Content digest of a chunk payload ({!Kondo_faults.Fnv.hash_bytes}). *)

val default_size : int
(** Default chunk size in bytes (4096). *)

type manifest = {
  name : string;       (** blob key, e.g. ["file.kh5#dataset"] *)
  chunk_size : int;
  total_len : int;     (** blob length in bytes *)
  ids : id array;      (** per-chunk content digests, in offset order *)
  root : id;           (** fold of [ids] with [Fnv.hash_pair] *)
}

val split : ?chunk_size:int -> bytes -> (int * bytes) list
(** [(index, payload)] tiles of the blob; every tile is [chunk_size]
    bytes except possibly the last.  @raise Invalid_argument when
    [chunk_size < 1]. *)

val manifest_of_bytes : ?chunk_size:int -> name:string -> bytes -> manifest
(** The blob's manifest, each tile digested in place (nothing copied).
    @raise Invalid_argument when [chunk_size < 1]. *)

val root_of_ids : id array -> id
(** The manifest root: [ids] folded left with [Fnv.hash_pair]
    (the FNV offset basis for an empty blob). *)

val chunk_count : manifest -> int

val chunk_of_offset : manifest -> int -> int
(** Index of the chunk containing byte [offset].
    @raise Invalid_argument when the offset is outside the blob. *)

val chunk_span : manifest -> int -> int * int
(** [(offset, length)] of chunk [i] within the blob.
    @raise Invalid_argument for an out-of-range index. *)

val verify : manifest -> int -> bytes -> bool
(** Does this payload have chunk [i]'s exact length and digest? *)

val encode : manifest -> string

val decode : string -> (manifest, string) result
(** Parse {!encode} output; rejects truncated or inconsistent input and
    a manifest whose root does not match its ids. *)
