(** Fixed-capacity bitsets.

    Index subsets over the default evaluation shapes reach millions of
    elements (2048 x 2048); a byte-packed bitset keeps membership, union
    and intersection cheap for ground truth and precision/recall math. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val capacity : t -> int
val set : t -> int -> unit
val set_range : t -> int -> int -> unit
(** [set_range t lo hi] sets every bit of [\[lo, hi)], a byte at a time. *)

val clear : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val copy : t -> t
val union_into : t -> t -> unit
(** [union_into dst src] adds all of [src] to [dst]; capacities must match. *)

val inter_cardinal : t -> t -> int
val diff_cardinal : t -> t -> int
(** [diff_cardinal a b] is [|a \ b|]. *)

val iter : t -> (int -> unit) -> unit
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b]: every member of [a] is in [b]. *)
