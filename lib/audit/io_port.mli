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
(** Open a real file for positional reads.  The file's length is
    measured once, when the port is opened: [size] returns it and
    [pread]'s bounds check uses it, so bytes appended later are out of
    range.  Ports are read-only, and every reader opens a finished
    file. *)

val with_file : string -> (t -> 'a) -> 'a
(** Open, apply, close (also on exception). *)
