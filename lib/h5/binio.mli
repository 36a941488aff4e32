(** Little-endian binary encoding helpers for the KH5 format. *)

val u8 : Buffer.t -> int -> unit
val u16 : Buffer.t -> int -> unit
val u32 : Buffer.t -> int -> unit
val u64 : Buffer.t -> int -> unit
val str16 : Buffer.t -> string -> unit
(** Length-prefixed (u16) string. *)

type cursor
(** Read cursor over bytes. *)

val cursor : bytes -> cursor
val pos : cursor -> int
val read_u8 : cursor -> int
val read_u16 : cursor -> int
val read_u32 : cursor -> int
val read_u64 : cursor -> int
val read_str16 : cursor -> string

exception Corrupt of string
(** Raised on truncated or malformed input. *)

val f64 : Buffer.t -> float -> unit
val read_f64 : cursor -> float

val remaining : cursor -> int
(** Bytes left after the cursor. *)
