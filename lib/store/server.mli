(** The chunk server: a block store plus cache behind the {!Proto}
    protocol.

    GETs go through the byte-budgeted {!Cache} in front of the block
    store (misses single-flight to the store), BATCH requests fan their
    lookups out over a {!Kondo_parallel.Pool} when the server was
    created with [jobs > 1] — which is exactly when the cache's
    coalescing earns its keep — and every request is answered, malformed
    ones with [Err].  Serving works over any handler-shaped transport:
    {!handle} is the whole protocol, so tests drive it through
    {!Transport.loopback} while {!serve_unix} runs the real
    Unix-domain-socket accept loop. *)

type t

val create :
  ?cache_bytes:int -> ?cache_shards:int -> ?jobs:int -> store:Block_store.t -> unit -> t
(** [cache_bytes] (default 1 MiB) budgets the read cache; [jobs]
    (default 1) sets the BATCH fan-out width. *)

val store : t -> Block_store.t
val cache : t -> Cache.t

val add_manifest : t -> Chunk.manifest -> unit
(** Register a manifest under its name; its chunks are put into the
    store separately. *)

val add_blob : t -> ?chunk_size:int -> name:string -> bytes -> Chunk.manifest
(** Chunk a blob into the store and register its manifest under [name]. *)

val add_kh5 : t -> ?chunk_size:int -> name:string -> string -> Chunk.manifest list
(** [add_kh5 t ~name path]: register one manifest per dataset of a
    dense KH5 file at [path], keyed
    ["name#dataset"], each over the dataset's logical data section —
    the byte space {!Kondo_container.Runtime} misses are expressed in.
    @raise Invalid_argument on sparse datasets (serve the original,
    un-debloated file). *)

val manifests : t -> (string * Chunk.manifest) list
(** Registered manifests, sorted by key. *)

val find_manifest : t -> string -> Chunk.manifest option
(** Exact key, or unique ["#dataset"]-suffix match, or — with key [""] —
    the server's only manifest. *)

val requests_served : t -> int

val handle : t -> string -> string
(** One protocol round: decode a request body, apply it, encode the
    response.  Never raises on malformed input. *)

val serve_unix : t -> socket:string -> ?on_ready:(unit -> unit) -> stop:(unit -> bool) -> unit -> unit
(** Bind [socket] (replacing a stale file), call [on_ready], then accept
    connections until [stop ()] holds, answering each connection's
    requests in arrival order until its peer disconnects.  [stop] is
    consulted between connections — wake a blocked accept by connecting
    once after flipping the flag. *)
