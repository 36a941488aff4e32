(** Index subsets of one data array: the sets [I_v] and [I_Θ] of the paper.

    Backed by a {!Bitset} over the row-major linearization of the array's
    shape, so union / intersection / difference — the operations behind
    precision, recall and bloat-fraction — cost a popcount sweep. *)

type t

val create : Shape.t -> t
(** Empty subset of the given index space. *)

val shape : t -> Shape.t

val add : t -> int array -> unit
(** Out-of-bounds indices raise [Invalid_argument]. *)

val add_if_in_bounds : t -> int array -> bool
(** Returns whether the index was in bounds (and hence added). *)

val add_run : t -> int array -> int -> unit
(** [add_run t start len] adds [start] and the [len - 1] indices after it
    along the last axis — one contiguous range of the row-major order.
    Out-of-bounds runs raise [Invalid_argument]. *)

val add_slab : ?clip:bool -> t -> Hyperslab.t -> unit
(** Add every index of a hyperslab selection; with [~clip:true] (default)
    out-of-bounds indices are silently skipped. *)

val mem : t -> int array -> bool
val cardinal : t -> int
val is_empty : t -> bool
val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src]; shapes must be equal. *)

val inter_cardinal : t -> t -> int
val diff_cardinal : t -> t -> int
val subset : t -> t -> bool
val equal : t -> t -> bool

val iter : t -> (int array -> unit) -> unit
(** Visit members in row-major order; callback buffer is fresh per call. *)

val to_list : t -> int array list

val of_list : Shape.t -> int array list -> t

val fraction : t -> float
(** |set| / |index space|. *)

val random_member : t -> Kondo_prng.Rng.t -> int array option
(** Uniform member, [None] when empty.  O(capacity) scan — test helper. *)

val to_bytes : t -> bytes
(** Compact serialization (shape header + packed membership bits). *)

val of_bytes : bytes -> t
(** Inverse of {!to_bytes}.  @raise Invalid_argument on malformed input. *)
