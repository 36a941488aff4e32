(** The serve/fetch wire protocol: length-prefixed, CRC-32-framed binary
    messages.

    On a byte-stream transport every message travels as one
    {!Kondo_faults.Frame} frame — [u32 length][u32 CRC-32][body] —
    so a torn or bit-flipped message is detected at the framing layer
    before decoding.  The body is a one-byte tag plus a binary payload;
    {!decode_request}/{!decode_response} reject anything malformed with
    an error string rather than an exception, so a server survives a
    garbage client and a client maps a mangled response to a retryable
    fault.

    Each encoder computes its message's exact length and fills one
    buffer: a payload string is copied once, into the message, and the
    encoder keeps no reference to it.  Each decoder copies a payload
    once, out of the message, into a fresh string the caller owns. *)

type stat_info = {
  chunks : int;           (** chunks in the block store *)
  store_bytes : int;
  manifests : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_coalesced : int;
  cache_bytes : int;
}

type request =
  | Get of Chunk.id
  | Put of Chunk.id * string
  | Stat
  | Batch of Chunk.id list             (** range GET: adjacent chunk ids in one round trip *)
  | Manifest_req of string
      (** by exact key, or ["#dataset"] to match a unique suffix *)
  | Scrape
      (** STATS op: dump the server's metrics registry in Prometheus
          text exposition format (answered with {!Metrics}) *)

type response =
  | Blob of string
  | Not_found of Chunk.id
  | Stored of bool                     (** PUT ack: was the chunk new? *)
  | Stats of stat_info
  | Blobs of (Chunk.id * string option) list
  | Manifest_resp of Chunk.manifest
  | Metrics of string                  (** Prometheus text exposition *)
  | Err of string

val max_message : int
(** Upper bound on an encoded message body (refuse anything larger). *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val write_message : out_channel -> string -> unit
(** Frame one encoded body onto a channel and flush. *)

val read_message : in_channel -> (string, string) result
(** Read one frame ({!Kondo_faults.Frame.input} capped at
    {!max_message}); [Error] on EOF, oversized length, or CRC mismatch. *)
