(** Content-defined chunking and Merkle trees for container delivery.

    The paper's group previously proposed content-defined Merkle trees
    for efficient container delivery (ref. [31]); this module provides
    that substrate so examples can report how many bytes a user must
    actually transfer when a debloated image replaces a full one (shared
    chunks deduplicate). *)

type chunk = { offset : int; length : int; hash : int64 }

val hash_bytes : bytes -> int64
(** FNV-1a digest of a whole buffer — the same digest {!chunk_bytes}
    assigns to a chunk's content, exposed so other layers (the block
    store) can content-address fixed-size chunks identically. *)

val hash_region : bytes -> int -> int -> int64
(** [hash_region buf off len] is {!hash_bytes} of [Bytes.sub buf off len],
    computed in place.
    @raise Invalid_argument when the region is outside [buf]. *)

val hash_pair : int64 -> int64 -> int64
(** The interior-node combiner of {!build}'s Merkle tree, exposed so a
    chunk manifest can carry a root digest over its chunk ids. *)

val chunk_bytes : ?avg_bits:int -> ?min_len:int -> ?max_len:int -> bytes -> chunk list
(** Content-defined chunk boundaries via a rolling hash.  [avg_bits]
    (default 12, i.e. ~4 KiB average) sets the boundary mask; chunks are
    clamped to [\[min_len, max_len\]] (defaults 256 and 65536).  The
    chunks tile the input exactly. *)

type t
(** A Merkle tree over the chunk hashes of one blob. *)

val build : ?avg_bits:int -> bytes -> t
val root_hash : t -> int64
val chunks : t -> chunk list
val total_bytes : t -> int

module HashSet : Set.S with type elt = int64

val chunk_hash_set : t -> HashSet.t

val transfer_size : have:HashSet.t -> t -> int
(** Bytes a client holding chunks [have] must download to materialize
    this blob. *)

val diff_summary : old_tree:t -> new_tree:t -> int * int
(** [(reused_bytes, transferred_bytes)] when updating from old to new. *)
