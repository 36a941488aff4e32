(** Minimal JSON string emission shared by the metrics and trace
    exporters and the report writer in [lib/core].  Number formatting is
    deterministic: integral floats print with one decimal, others via
    [%.12g], NaN/infinities as [null], so every JSON artifact the system
    emits renders strings and numbers identically. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)

val number : float -> string

val obj : (string * string) list -> string
(** [obj fields] renders [{"k":v,...}] where each value is already
    rendered JSON. *)

val arr : string list -> string
(** [arr items] renders [[v,...]] where each item is already rendered. *)
