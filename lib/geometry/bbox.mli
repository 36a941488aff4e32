(** Axis-aligned bounding boxes in [d] dimensions. *)

type t = private { lo : float array; hi : float array }

val make : float array -> float array -> t
(** [make lo hi]; requires [lo.(i) <= hi.(i)] for all [i]. *)

val of_points : float array list -> t
(** Smallest box covering a non-empty list of points. *)

val dim : t -> int
val lo : t -> float array
val hi : t -> float array

val contains : ?eps:float -> t -> float array -> bool

val union : t -> t -> t

val inflate : t -> float -> t
(** [inflate b m] grows every side by margin [m] in both directions. *)

val volume : t -> float

val min_dist : t -> t -> float
(** Minimum Euclidean distance between two boxes (0 when they intersect). *)

val iter_lattice : t -> (int array -> unit) -> unit
(** [iter_lattice b f] calls [f] on every integer point inside [b]
    (inclusive bounds, after rounding [lo] up and [hi] down).  The same
    [int array] buffer is reused between calls; callers must copy it if
    they retain it. *)

val lattice_bounds : t -> int array * int array
(** Per-axis inclusive integer range [iter_lattice] walks (fresh arrays). *)

val lattice_count : t -> int
(** Number of integer points [iter_lattice] would visit. *)
