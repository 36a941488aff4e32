(** The one content digest: 64-bit FNV-1a.

    The chunk store content-addresses its fixed-size chunks with
    {!hash_region} and folds a manifest's ids into its root with
    {!hash_pair}; the CLI's [value checksum] folds read values with the
    same two functions.  FNV-1a is fast and stable, not collision
    resistant. *)

val hash_bytes : bytes -> int64
(** FNV-1a-64 of a whole buffer: [""] is [0xcbf29ce484222325] (the
    offset basis), ["a"] is [0xaf63dc4c8601ec8c]. *)

val hash_region : bytes -> int -> int -> int64
(** [hash_region buf off len] is {!hash_bytes} of [Bytes.sub buf off len],
    computed in place.
    @raise Invalid_argument when the region is outside [buf]. *)

val hash_pair : int64 -> int64 -> int64
(** An order-sensitive combiner of two digests: a manifest root is its
    chunk ids folded left with it, starting from [hash_bytes ""]. *)
