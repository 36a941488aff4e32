(** Physical layouts: the index -> byte-offset map of a data array.

    Kondo must translate between the d-dimensional index space in which
    fuzzing and carving happen and the 1-dimensional byte-offset space in
    which I/O events are observed (paper §IV-C).  Both directions are
    provided, for contiguous (row-major) and HDF5-style chunked storage
    (§VI: "chunks form the unit of access ... the byte offset of each chunk
    can also be described in terms of the d-dimensions"). *)

type t =
  | Contiguous                 (** row-major, one dense block *)
  | Chunked of int array       (** chunk dims; chunks stored row-major, elements row-major within a chunk *)

val validate : t -> Shape.t -> unit
(** @raise Invalid_argument when chunk rank mismatches or a chunk dim is
    non-positive. *)

val chunk_grid : t -> Shape.t -> int array
(** Number of chunks along each dimension ([[|1;..|]] when contiguous —
    the whole array is one chunk). *)

val storage_nelems : t -> Shape.t -> int
(** Number of element slots in the file, including chunk padding at the
    array's ragged edges. *)

type addressing
(** The index -> byte-offset map of one array, precomputed: the strides
    of the array, its chunks and its chunk grid. *)

val addressing : t -> Shape.t -> Dtype.t -> addressing

val offset : addressing -> int array -> int
(** Byte offset of one element within the dataset's data section, or
    [-1] when the index has the wrong rank or lies outside the array.
    Allocates nothing: the per-element cost of a reader. *)

val element_offset : t -> Shape.t -> Dtype.t -> int array -> int
(** [offset (addressing t shape dt) idx], for a single lookup. *)

val index_of_offset : t -> Shape.t -> Dtype.t -> int -> int array option
(** Inverse of {!element_offset}: [None] when the offset points at chunk
    padding or is not element-aligned. *)

val contiguous_run : t -> Shape.t -> Dtype.t -> int array -> int
(** [contiguous_run l s dt idx] is the number of elements starting at
    [idx] (inclusive) that are stored contiguously on disk — the longest
    run a single read can cover. *)

val to_string : t -> string
