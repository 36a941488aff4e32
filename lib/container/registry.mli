(** A content-addressed container registry.

    Models the distribution side of the debloating story (paper refs
    [6] Slacker and [31] content-defined Merkle trees): images are pushed
    as manifests referencing content-defined chunks, chunks deduplicate
    across images and versions, and a pull transfers only the chunks the
    client does not already hold.  This is what makes shipping a
    debloated image next to the original cheap: the kept data chunks are
    shared.  Chunks live in an in-process table. *)

type t

val create : unit -> t

val push : t -> name:string -> Image.t -> int
(** Store an image under [name]; returns the bytes of {e new} chunks
    actually added to the store (0 when everything deduplicated). *)

val pull : t -> name:string -> have:Merkle.HashSet.t -> (Image.t * int)
(** Reconstruct the image and report the bytes a client holding [have]
    transfers (env layers count fully unless the exact layer is held —
    identified by its command hash, like a cached base layer).
    @raise Not_found for unknown names. *)

val manifest_names : t -> string list
val chunk_count : t -> int
val stored_bytes : t -> int
(** Data bytes in the chunk store (deduplicated). *)

val chunks_of : t -> name:string -> Merkle.HashSet.t
(** The chunk set of a stored image (what a client holds after pulling
    it).  @raise Not_found. *)

val gc : t -> keep:string list -> int
(** Drop manifests not in [keep] and unreferenced chunks; returns bytes
    reclaimed.  @raise Not_found when a kept name is unknown. *)
