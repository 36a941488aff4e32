open Kondo_dataarray
open Kondo_interval
open Kondo_workload

(** The end-to-end Kondo pipeline (paper Fig. 3).

    Sample → fuzz (Alg. 1) → carve (Alg. 2) → rasterize the hulls into
    the approximated index subset [I'_Θ] → translate to byte ranges →
    produce the debloated data file / container. *)

type report = {
  program : string;
  fuzz : Schedule.result;
  carve : Carver.result;
  approx : Index_set.t;   (** I'_Θ: hull lattice ∪ observed indices *)
  accuracy : Metrics.accuracy option;  (** vs ground truth, when computed *)
}

val subset : config:Config.t -> Program.t -> Index_set.t -> Carver.result * Index_set.t
(** The subset step: carve the observed indices into hulls (Alg. 2),
    rasterize the hulls and add the observed indices themselves, giving
    [I'_Θ].  {!approximate}, [Campaign.carve] and the hybrid baseline
    all take this one step. *)

val approximate : config:Config.t -> Program.t -> report
(** Run the pipeline; [accuracy] is [None] (no ground-truth pass). *)

val evaluate : config:Config.t -> Program.t -> report
(** {!approximate} plus ground-truth comparison. *)

val keep_intervals : Program.t -> Index_set.t -> layout:Layout.t -> Interval_set.t
(** Byte ranges of the logical data section covering every index of
    [I'_Θ] under the given physical layout (§IV-C's index↔offset map). *)

val debloat_file : config:Config.t -> Program.t -> src:string -> dst:string -> report
(** Read the program's dense KH5 file at [src], run the pipeline, and
    write the debloated KH5 file to [dst]. *)

val debloat_file_many :
  config:Config.t -> Program.t list -> src:string -> dst:string -> (string * report) list
(** Multi-dataset applications (paper footnote 1: "an application may use
    multiple data files, each self-describing").  Each program reads its
    own dataset of the KH5 file at [src]; every dataset is debloated to
    the union of its programs' approximations, and datasets no program
    reads are dropped entirely — the file-level debloating classic
    lineage systems already provide (§II's D₂ case).  Returns one report
    per program. *)

val debloat_image :
  config:Config.t -> Program.t -> image:Kondo_container.Image.t -> dst:string ->
  Kondo_container.Image.t * report
(** Replace the data layer [dst] of a container image with its debloated
    KH5 content (the developer-side step of §III). *)
