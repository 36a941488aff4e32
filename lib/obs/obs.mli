(** The ambient observability facade.

    Instrumented code paths register their instruments in
    {!Registry.default} (always on — counters are a couple of atomic
    adds) and emit spans through the {e ambient tracer}, which is [None]
    until something installs one ({!set_tracer}); with no tracer
    installed {!span} runs its thunk directly, so tracing costs nothing
    when off.  The CLI installs a tracer for the duration of a command
    when [--trace FILE] is given and exports it on the way out. *)

val set_tracer : Trace.t option -> unit
val tracer : unit -> Trace.t option
val enabled : unit -> bool
(** Is a tracer currently installed? *)

val span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?result_args:('a -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** Run a thunk inside an ambient span (or run it bare when no tracer is
    installed).  [result_args] computes end-time attributes from the
    result; an escaping exception ends the span with an ["error"]
    attribute and re-raises. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
