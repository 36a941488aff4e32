(** Built container images.

    An image realizes a {!Spec}: one layer per environment dependency
    (sized by a deterministic model of package footprints — the E's of
    Fig. 2 are not what Kondo debloats, but their size matters for the
    bloat accounting in the examples) and one layer per data dependency
    holding the actual file bytes. *)

type layer =
  | Env of { cmd : string; bytes : int }
  | Data of { dst : string; content : bytes }

type t = { spec : Spec.t; layers : layer list }

val build : Spec.t -> fetch:(string -> bytes) -> t
(** [build spec ~fetch] assembles an image; [fetch src] supplies the
    content of each data dependency (e.g. [Bytes] of a KH5 file). *)

val env_layer_size : string -> int
(** The deterministic package-footprint model (exposed for tests). *)

val size : t -> int
val env_size : t -> int
val data_size : t -> int

val data_content : t -> dst:string -> bytes option

val replace_data : t -> dst:string -> bytes -> t
(** Swap a data layer's content (how the developer ships the debloated
    file, §III).  @raise Not_found for unknown destinations. *)

val materialize : t -> dir:string -> (string * string) list
(** Write every data layer under [dir], each replacing its file
    atomically; returns [(dst, local_path)] mappings ready for
    {!Kondo_h5.File.open_file}. *)
