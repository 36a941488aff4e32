(** The content-addressed chunk store behind the serve/fetch protocol.

    An in-memory index under one mutex (server domains may touch it
    concurrently) over an optional on-disk backing file.  The backing
    file is an append-only stream of {!Kondo_faults.Frame} records —
    [u64 id][payload] per frame — so a crash at any byte leaves a valid
    prefix: {!create} salvages every complete frame, truncates the torn
    tail, and resumes appending.
    Every {!put} of a new chunk is flushed before returning. *)

type t

val create : ?path:string -> unit -> t
(** With [path], chunks persist to that backing file; an existing file is
    loaded, salvaging the longest valid frame prefix. *)

val put : t -> Chunk.id -> bytes -> bool
(** Store a chunk under its id; [true] when it was new ([false] when the
    id deduplicated — content-addressing makes overwrites meaningless). *)

val get : t -> Chunk.id -> bytes option
val mem : t -> Chunk.id -> bool

val remove : t -> Chunk.id -> int
(** Drop a chunk from the index; returns the bytes freed (0 when
    absent).  The backing file shrinks on the next {!compact}. *)

val count : t -> int
val stored_bytes : t -> int
val hashes : t -> Chunk.id list
(** All ids, sorted (deterministic whatever the insertion order). *)

val load_report : t -> int * bool
(** [(chunks salvaged at create, intact)]: [intact] is [false] when the
    backing file had a torn or corrupt tail that was dropped. *)

val compact : t -> unit
(** Atomically rewrite the backing file from live chunks (id order) —
    reclaims removed chunks' bytes on disk.  No-op without a path. *)

val close : t -> unit
