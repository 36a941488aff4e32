(** Persistent binary event logs.

    Kondo's audit "records system call arguments in a data store" (§V)
    so that carving and re-execution can happen offline, after the
    audited runs.  The log format is a compact LEB128-varint stream with
    a path string table (paths repeat across events), written append-only.

    Since format v2 every appended record group is CRC-framed
    ({!Kondo_faults.Frame}) and flushed, so a crash at {e any} byte
    leaves a salvageable prefix: {!load} drops a torn or corrupted tail
    and returns the longest valid event prefix instead of failing the
    whole log.  A v1 log (unframed, [KLOG\x01]) fails as bad magic:
    nothing has written one since v2.

    A saved log reloads into the exact event list; [replay] folds a log
    into a fresh {!Tracer} to rebuild its interval indexes. *)

type writer

val create_writer : string -> writer
(** Truncates/creates the file and writes the header. *)

val log : writer -> Event.t -> unit
(** Append one CRC-framed record group and flush. *)

val close_writer : writer -> unit

val save : string -> Event.t list -> unit
(** One-shot: write a whole event list atomically (temp file + rename). *)

val load : string -> Event.t list
(** Longest valid prefix of the log; a truncated or corrupted tail is
    dropped, not an error.  @raise Failure on logs that are not event
    logs at all (bad magic). *)

val load_salvage : string -> Event.t list * bool
(** Like {!load}, also reporting whether the log was fully intact
    ([false] when a torn/corrupt tail was dropped). *)

val replay : string -> Tracer.t
(** Load a log and rebuild a tracer from it (event sequence numbers are
    preserved from the log). *)
