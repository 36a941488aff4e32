open Kondo_dataarray

(** Dataset metadata: the self-describing part of a KH5 file.

    Paper §VI relies on data files being self-describing — carrying
    dimension ranges, element types, and chunk sizes — so that byte
    offsets can be recovered from d-dimensional indices and vice versa.
*)

type storage =
  | Dense                         (** full data section present *)
  | Sparse of Kondo_interval.Interval_set.t
      (** debloated: only the listed byte ranges of the logical data
          section are materialized *)

type attr = Str of string | Num of float
(** Dataset attributes, as in HDF5/NetCDF metadata (units, provenance
    notes, creation parameters...). *)

type t = {
  name : string;
  dtype : Dtype.t;
  shape : Shape.t;
  layout : Layout.t;
  storage : storage;
  attrs : (string * attr) list;
}

val dense :
  name:string -> dtype:Dtype.t -> shape:Shape.t -> ?layout:Layout.t ->
  ?attrs:(string * attr) list -> unit -> t
(** Layout defaults to [Contiguous]; attributes to none. *)

val attr : t -> string -> attr option

val logical_bytes : t -> int
(** Size of the (possibly padded, for chunked layouts) logical data
    section in bytes. *)

val stored_bytes : t -> int
(** Bytes actually materialized in the file ([logical_bytes] when dense). *)

val index_of_offset : t -> int -> int array option

val is_sparse : t -> bool
val to_string : t -> string
