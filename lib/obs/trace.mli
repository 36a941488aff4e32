(** The span tracer: nested begin/end spans with string attributes,
    recorded per completed span and exportable as Chrome [trace_event]
    JSON — loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}.

    Spans are cheap: {!begin_span} only reads the clock; the event is
    recorded (one mutex-protected append) at {!end_span}.  Any domain
    may begin/end spans concurrently; an event carries the recording
    domain's id as its [tid].  With a virtual {!Clock.t} the export is
    byte-stable, which the golden tests rely on. *)

type t

val create : ?clock:Clock.t -> unit -> t
(** [clock] defaults to {!Clock.real}. *)

val clock : t -> Clock.t

type span

val begin_span : t -> ?cat:string -> ?args:(string * string) list -> string -> span
val end_span : t -> ?args:(string * string) list -> span -> unit
(** End-time [args] are appended to the begin-time ones. *)

val finish : t -> ?args:(string * string) list -> span -> float
(** {!end_span}, returning the recorded duration in seconds: the one
    value both the trace and {!span_totals} hold for this span. *)

val with_span :
  t -> ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span; the span ends even on an exception
    (annotated with an ["error"] attribute). *)

val instant : t -> ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val event_count : t -> int

val span_totals : t -> (string * float * int) list
(** Per span name, sorted by name: total seconds and number of completed
    spans — the per-layer split of everything recorded so far. *)

val to_chrome_json : t -> string
(** [{"traceEvents":[...]}] — completed spans as ["ph":"X"] events with
    microsecond [ts]/[dur], instants as ["ph":"i"]; events sorted by
    timestamp then domain then recording order. *)
