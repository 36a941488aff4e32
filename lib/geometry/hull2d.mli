(** Planar convex hulls (Andrew's monotone chain).

    The hull of a point set with at least three non-collinear points is a
    counter-clockwise simple polygon.  Collinear input collapses to a
    segment and a singleton to a point; callers that need those cases use
    {!Hull.of_points}, which detects them before reaching this module. *)

type t
(** A convex polygon with >= 3 vertices in counter-clockwise order. *)

exception Degenerate
(** Raised by {!of_points} when the input has fewer than three distinct
    points or all points are collinear. *)

val of_points : float array list -> t
(** Convex hull of the input (each point must have length 2).
    @raise Degenerate on collinear or too-small input. *)

val vertices : t -> float array list
(** Hull vertices in counter-clockwise order. *)

val contains : ?eps:float -> t -> float array -> bool
(** Point-in-convex-polygon test; boundary points are inside. *)

val area : t -> float
