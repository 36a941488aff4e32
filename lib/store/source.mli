(** Miss-serving sources for {!Kondo_container.Runtime}: its one
    hardened miss path.  Every source reads through a {!Client} (retry,
    circuit breaker, fault injection, per-chunk digest checks), whether
    the chunks come from a [kondo serve] socket ([kondo run
    --remote-store]) or from dense source files on disk ([--remote]).

    A source sees the runtime's mounts as the [(dst, path)] list
    {!Kondo_container.Runtime.of_files} takes.  It only serves a dataset
    whose manifest has the logical length of the local copy, which it
    reads from the KH5 header at [path] (opened once per dataset, then
    closed): a blob of another length under the same name is another
    file, and its bytes would be wrong values.  Such a dataset, and a
    range outside the manifest, fail with a [Permanent] error, so the
    read degrades (or falls through {!first}). *)

open Kondo_container

val of_client :
  ?store_name:string -> mounts:(string * string) list -> Client.t -> Runtime.store_source
(** Serve misses of the [mounts] with {!Client.read_bytes}, resolving
    (and memoizing) one manifest per dataset under the key
    ["store_name#dataset"].  The default [store_name] [""] matches the
    dataset suffix alone, which suffices when the server serves one
    file.  The source is named after the client's peer. *)

val of_files :
  ?retry:Kondo_faults.Retry.policy ->
  ?faults:Kondo_faults.Fault_plan.t ->
  ?cache:Cache.t ->
  mounts:(string * string) list ->
  sources:(string * string) list ->
  unit ->
  (Client.t * Runtime.store_source, string) result
(** The remote-file source of paper §VI: a client (built with [retry],
    [faults] and [cache]) of a loopback server over the dense KH5 files
    of [sources], each a [(dst, src)] pair naming the mount it backs,
    keyed ["dst#dataset"].  Each [src] is opened once, here, and checked
    to be dense; every manifest and chunk it serves is read through that
    handle, so a file replaced on disk later still serves the bytes it
    was indexed from.  A dataset is digested on its first miss and a
    chunk read on its first fetch, so memory holds only the chunks
    missed into.  {!Client.close} closes the files.  [Error] names the
    source file that cannot be served: absent, unreadable, not KH5, or
    sparse. *)

val first : Runtime.store_source list -> Runtime.store_source
(** Try each source in order and serve from the first that succeeds;
    when every source fails, report the last one's error.  This is the
    "store, then [--remote]" fallback of [kondo run].
    @raise Invalid_argument on an empty list. *)
