(** Dimension-generic convex hulls over index-space points.

    The carver (paper Alg. 2) manipulates convex hulls of integer index
    points in 1, 2 or 3 dimensions.  Point sets observed inside a single
    grid cell are frequently degenerate — a lone index, a row of indices,
    or (in 3D) a plane of indices — so this module represents every
    affine-dimension case explicitly rather than failing:

    - 0-dimensional: a single point,
    - 1-dimensional: a segment between the two extreme points,
    - 2-dimensional: a convex polygon ({!Hull2d}), embedded in its carrier
      plane when the ambient space is 3D,
    - 3-dimensional: a convex polytope ({!Hull3d}).

    All operations treat boundary points as inside. *)

type t

val of_points : float array list -> t
(** Convex hull of a non-empty list of points that all share one
    dimensionality (1–3). *)

val of_int_points : int array list -> t
(** Convenience: converts integer index tuples and builds the hull. *)

val dim : t -> int
(** Ambient dimensionality. *)

val affine_dim : t -> int
(** Dimension actually spanned: 0 point, 1 segment, 2 polygon, 3 polytope. *)

val vertices : t -> float array list
(** Extreme points defining the hull. *)

val contains : ?eps:float -> t -> float array -> bool

val contains_int : ?eps:float -> t -> int array -> bool

val centroid : t -> float array
(** Centroid of the hull vertices — the paper's hull "center" (§IV-B). *)

val bbox : t -> Bbox.t

val center_distance : t -> t -> float
(** Euclidean distance between hull centers. *)

val boundary_distance : t -> t -> float
(** Minimum pairwise distance between the vertex sets of two hulls — the
    paper's hull-boundary distance (§IV-B). *)

val merge : t -> t -> t
(** Hull of the union of the two hulls' vertices.  Equivalent to the hull
    of the union of the original point sets (paper §IV-B, citing the
    standard merge argument). *)

val measure : t -> float
(** Length / area / volume according to {!affine_dim} (0 for a point). *)

type halfspace = {
  coeffs : float array;
  equality : bool;  (** true: [coeffs·x = rhs]; false: [coeffs·x <= rhs] *)
  rhs : float;
}

val halfspaces : t -> halfspace list
(** H-representation: a point is inside the hull iff it satisfies every
    returned constraint (up to a scaled epsilon).  Degenerate hulls emit
    equalities for their lost dimensions — a segment in 2D is one line
    equality plus two extent bounds, a planar polygon in 3D is its plane
    equality plus the lifted edge inequalities. *)

val satisfies_halfspaces : ?eps:float -> halfspace list -> float array -> bool
(** Check the constraint conjunction directly (matches {!contains} on the
    hull the constraints came from). *)

type scan = {
  rows : int;            (** lattice rows examined *)
  contains_calls : int;  (** {!contains} evaluations made to fix row ends *)
}

val iter_rows : ?dims:int array -> t -> (int array -> int -> int -> unit) -> scan
(** [iter_rows ~dims h f] visits the integer points of the hull's bounding
    box that satisfy [contains ~eps:1e-6], one row along the last axis at
    a time: [f idx lo hi] means that the points agreeing with [idx] on
    every other axis and with last coordinate in [\[lo, hi\]] are inside,
    and no other point of that row is.  [idx.(dim - 1) = lo] on entry;
    the buffer is reused.  Rows with no member are skipped.  With [dims]
    the walk is clipped to [\[0, dims.(k))] on every axis.

    Each row costs one pass over {!halfspaces}, relaxed slightly so that
    the candidate run covers every member, plus the [contains] calls that
    move the two ends onto the members; convexity makes the members one
    run. *)

val iter_lattice : t -> (int array -> unit) -> unit
(** Visit every integer point inside the hull (boundary inclusive), in
    row-major order, row by row through {!iter_rows}.  The buffer passed
    to the callback is reused; copy to retain. *)

val lattice_count : t -> int
(** Number of integer points inside the hull. *)

val pp : Format.formatter -> t -> unit
