(** Positional-read I/O ports.

    A port is the seam at which Kondo's auditing interposes: every byte an
    application reads flows through [pread].  Real files and in-memory
    buffers both implement it, and {!Tracer.wrap} produces a port that
    logs events before delegating.  This substitutes for Sciunit's
    ptrace-based syscall interception (see DESIGN.md §5). *)

type t = {
  path : string;
  size : unit -> int;
  pread : int -> int -> bytes;
    (** [pread off len] returns exactly the requested bytes;
        raises [Invalid_argument] when the range exceeds the file. *)
  close : unit -> unit;
}

val of_bytes : path:string -> bytes -> t
(** In-memory port (no OS I/O). *)

val of_file : string -> t
(** Open a real file for positional reads.  The file is mapped
    read-only and private once, at open, and its descriptor is closed
    at once: [pread] is a bounds check and a copy out of the page
    cache, with no syscall.  The length is fixed at open: [size]
    returns it and [pread]'s bounds check uses it, so bytes appended
    later are out of range.  A zero-length file is an empty port.

    A failed open raises [Sys_error "<path>: <reason>"] (a missing
    path, a directory, a file that cannot be mapped), never
    [Unix.Unix_error].  [close] drops the mapping, which the GC then
    unmaps; [pread] after [close] raises [Sys_error].

    Ports are read-only, and every reader opens a finished file: the
    writers replace a file by renaming a new one over it, and a mapped
    reader keeps the inode it opened.  A file that another process
    truncates in place under a mapped reader makes that reader's next
    read of the lost pages fail with SIGBUS. *)

val with_file : string -> (t -> 'a) -> 'a
(** Open, apply, close (also on exception). *)
