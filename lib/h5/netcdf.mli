open Kondo_dataarray
open Kondo_audit

(** NetCDF classic (CDF-1) files.

    The paper's prototype is "tested for HDF5 and NetCDF" (§I); this
    module implements the classic NetCDF format faithfully enough for
    Kondo's needs: the big-endian CDF-1 header (dimension list, variable
    list with shapes, types and data offsets) and contiguous fixed-size
    variable data.  Attribute lists are written empty and skipped on
    read; record (unlimited) dimensions are not supported.

    Reads flow through {!Io_port}, so NetCDF executions are audited by
    the same tracer as KH5 ones.  [to_kh5] converts a NetCDF file to a
    KH5 one so the debloating pipeline (which writes sparse KH5) applies
    to NetCDF-backed applications. *)

type nc_type = Nc_int | Nc_float | Nc_double

type dim = { dim_name : string; size : int }

type var = {
  var_name : string;
  dim_ids : int array;   (** indices into the file's dimension list *)
  nc_type : nc_type;
  begin_ : int;          (** absolute byte offset of the variable's data *)
}

type t

val nc_type_size : nc_type -> int

val write :
  string ->
  dims:dim list ->
  vars:(string * int array * nc_type * (int array -> float)) list ->
  unit
(** [write path ~dims ~vars] creates a classic NetCDF file.  Each var is
    (name, dim ids, type, fill).  The file is replaced atomically: a
    fill that raises leaves the previous file whole.  @raise
    Invalid_argument on unknown dim ids or duplicate names. *)

val open_port : Io_port.t -> t
(** @raise Binio.Corrupt on malformed input. *)

val open_file : ?tracer:Tracer.t -> ?pid:int -> string -> t

val close : t -> unit

val dims : t -> dim list
val vars : t -> var list
val find_var : t -> string -> var
(** @raise Not_found. *)

val shape_of_var : t -> var -> Shape.t

val read_element : t -> string -> int array -> float

val read_slab : t -> string -> Hyperslab.t -> (int array -> float -> unit) -> unit
(** Clipped to the variable's shape, like {!File.read_slab}. *)

val to_kh5 : t -> string -> unit
(** Convert every variable into a dense KH5 dataset (Float64 for
    [Nc_float]/[Nc_double], Int32 for [Nc_int]) at the given path. *)
