(** The integrity layer: the one CRC-32, CRC-framed record streams,
    and atomic file replacement.

    Every checksummed byte the system persists or sends goes through
    this module: KH5 sections carry {!crc32}, and block-store files,
    event logs, campaigns and [Kondo_store.Proto] wire messages are
    streams of frames.

    A frame is [u32 length][u32 CRC-32][payload], little-endian.  A
    writer that appends whole frames and flushes leaves — after a crash
    at {e any} byte — a prefix of valid frames followed by at most one
    torn frame, which {!read_all} detects and drops: loaders salvage the
    longest valid prefix instead of failing the whole file.

    {!atomic_write} is the complementary whole-file story: write to
    [path ^ ".tmp"], flush, rename — a crash mid-save never destroys the
    previous complete file. *)

val crc32 : bytes -> int
(** IEEE 802.3 CRC-32 (the zlib/PNG one): the check value of
    ["123456789"] is [0xCBF43926].  Computed by slicing-by-8: eight
    256-entry tables, derived from the reflected IEEE polynomial, fold
    in one 8-byte little-endian word per step, and
    the byte-at-a-time table finishes the last 0-7 bytes. *)

val crc32_string : string -> int

val header_len : int
(** Bytes of framing overhead per frame (8). *)

val write : out_channel -> string -> unit
(** Append one frame and flush the channel. *)

val read_one : bytes -> int -> (string * int) option
(** [read_one buf pos] parses the frame at [pos]: [Some (payload, next)]
    or [None] when the frame is torn, truncated, or CRC-corrupt. *)

val read_all : bytes -> pos:int -> string list * bool
(** All valid frames from [pos]; the boolean is [true] iff the buffer
    ended exactly on a frame boundary (nothing was dropped). *)

val input : in_channel -> max_len:int -> (string, string) result
(** Read one frame from a channel.  The length is checked against
    [max_len] before the payload is allocated, so a hostile header costs
    no memory.  [Error] on end of input (["connection closed"]), a
    length outside [[0, max_len]] (["oversized or negative frame"]), a
    CRC mismatch (["frame CRC mismatch"]) or a read error (its message);
    never raises. *)

val atomic_write : string -> (out_channel -> unit) -> unit
(** Run the writer against [path ^ ".tmp"], flush, and rename over
    [path].  On exception the temp file is removed and [path] is left
    untouched. *)

val read_file : string -> bytes
(** Whole file as bytes. *)
