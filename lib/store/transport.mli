(** Pluggable client-side transports for the serve/fetch protocol.

    A connection sends one encoded request body and receives one encoded
    response body per round.  Two implementations: an in-process
    loopback that invokes a handler directly (deterministic, no OS
    resources — what tests and benches use) and a Unix-domain-socket
    client speaking {!Proto}'s CRC-framed messages (what
    [kondo run --remote-store] uses against [kondo serve]). *)

type conn = {
  send : string -> unit;                   (** one encoded request body *)
  recv : unit -> (string, string) result;  (** the matching response body *)
  close : unit -> unit;
  peer : string;                           (** description for error messages *)
}

val loopback : handle:(string -> string) -> conn
(** Requests are handled synchronously by [handle]; responses queue in
    order.  [recv] before [send] reports an error instead of blocking. *)

val unix_connect : string -> conn
(** Connect to a Unix-domain socket at this path.  Sets SIGPIPE to
    ignored for the whole process, so a peer that hangs up makes a
    failed write, not a dead process: [send] then raises [Sys_error],
    which {!Client} counts as a transient fault of that exchange.
    @raise Unix.Unix_error when the socket is absent or refuses. *)
