(** The ambient observability facade: the one way instrumented code
    times a section.

    Each timed section is a {!section}, made once at module
    initialisation, which owns the section's series of the
    [kondo_span_seconds{span="<name>"}] histogram in
    {!Registry.default}.  {!span} observes every run of the section into
    that series, so a metrics dump or a live scrape carries per-layer
    time whether or not a tracer is installed.  When the CLI's
    [--trace FILE] installs an {e ambient tracer} ({!set_tracer}), the
    section is also recorded as a trace span, and the histogram
    observes the very duration the trace records.  Either way a span
    costs two clock reads and one histogram observation. *)

val set_tracer : Trace.t option -> unit
val tracer : unit -> Trace.t option

type section
(** A named section: its span name, its trace category and its
    histogram series. *)

val section : ?cat:string -> string -> section
(** [section ?cat name] registers [name]'s [kondo_span_seconds] series
    ([cat] defaults to ["kondo"]).  Make each section once, as a
    module-level value, so no worker domain ever registers a series and
    a span does no registry lookup. *)

val span :
  ?args:(string * string) list ->
  ?result_args:('a -> (string * string) list) ->
  section ->
  (unit -> 'a) ->
  'a
(** Run a thunk as one span of the section and observe its duration.
    Untraced, the duration is read from {!Clock.real}; traced, from the
    tracer's clock, and [args] and [result_args] (computed from the
    result, only when traced) become the trace event's attributes.  An
    escaping exception still counts; a traced span then ends with an
    ["error"] attribute.  The exception is re-raised. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
