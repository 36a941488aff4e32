(** KH5 file writer.

    A KH5 file is a superblock (magic, dataset count), a metadata table
    describing every dataset (name, dtype, dims, layout, storage, data
    offset), and the data sections.  Sparse (debloated) datasets
    additionally carry a run table: the byte ranges of the logical data
    section that are materialized, in order, concatenated in the data
    section.

    Both writers replace [path] atomically ({!Kondo_faults.Frame.atomic_write}):
    a writer that fails leaves the previous file whole, and a reader
    that mapped the previous file keeps reading it. *)

val magic : string

val write : string -> (Dataset.t * (int array -> float)) list -> unit
(** [write path datasets] creates a KH5 file.  Every dataset must be
    [Dense]; values come from the fill function; chunk padding slots are
    written as zero.  Dataset names must be distinct. *)

val write_bytes : (Dataset.t * (int array -> float)) list -> bytes
(** Same serialization, in memory. *)

val write_debloated :
  string -> source:File.t -> keep:(string -> Kondo_interval.Interval_set.t) -> unit
(** [write_debloated path ~source ~keep] re-writes every dataset of
    [source] keeping only the byte ranges [keep name] of each logical
    data section (the data subset [D_Θ] of Definition 1 — everything
    else becomes Null, i.e. absent).  Ranges are clipped to the section
    and rounded out to element boundaries. *)
