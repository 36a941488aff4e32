(** Convex hulls in three dimensions.

    Incremental construction: start from a tetrahedron of four affinely
    independent points, then insert the remaining points in input order;
    a point that sees faces of the current hull (signed distance above
    [1e-9 * (1 + |normal|)]) deletes them and re-triangulates the horizon
    with itself.  The insertion order decides which boundary points stay:
    a point on a face of the current hull is not inserted, but a point
    inserted while it was outside stays a corner when later points make
    its faces coplanar, since coplanar faces are never visible.  The
    vertex set is therefore generally larger than the set of extreme
    points.

    Faces are kept in flat arrays: each face's normal, offset and
    tolerance are computed once, a deleted face's slot is reused, and the
    horizon is found over the few visible faces by sorting their edges.
    Faces that no input point can see, certified against the input's
    bounding box with a margin that covers float rounding, leave the set
    each new point is tested against.  Cost is O(n * f) face tests for n
    points and f live faces that are not certified, without allocation
    per test; the carver's cells and merges are tens to a few hundred
    points.

    Degenerate inputs (all points coplanar, collinear, or coincident)
    raise {!Degenerate}; {!Hull.of_points} handles those by dropping to a
    lower-dimensional representation. *)

type t

exception Degenerate

val of_points : float array list -> t
(** Convex hull of the input (each point must have length 3).
    @raise Degenerate when no non-degenerate tetrahedron exists. *)

val vertices : t -> float array list
(** Every input point that is a corner of a face, in input order.  Not
    only the extreme points: boundary points that became corners during
    the incremental build stay (an 8³ lattice cube keeps 130, not 8). *)

val faces : t -> (float array * float array * float array) list
(** Triangular faces with vertices ordered so the right-hand normal points
    outward, newest first: faces made by a later insertion come before
    earlier ones, and the faces of one insertion are ordered by their
    horizon edge (smaller, then larger point index, ascending). *)

val contains : ?eps:float -> t -> float array -> bool
(** [contains t p] holds when [p] is inside or on the hull. *)

val volume : t -> float

val centroid : t -> float array
(** Centroid of the hull {e vertices} (the paper's hull "center"). *)
