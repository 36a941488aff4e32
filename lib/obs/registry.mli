(** The metrics registry: named counters, gauges, and fixed-bucket
    histograms, safe to update concurrently from any domain.

    A counter series is one atomic cell; a histogram is one bucket
    array under its own mutex, so a snapshot ({!expose}, {!to_json}, or
    the [_value] readers) sees each histogram's buckets, sum and count
    from one moment.  Registration is get-or-create: asking twice for
    the same name (and label set) returns the same series (the first
    registration's help text and buckets win), so independent modules
    can share one process-global registry ({!default}) without
    coordination.  Registering a name as two different kinds is an
    error.

    A counter name may carry several {e labelled series}, one per label
    set.  An object that counts its own events (a runtime, a store
    client, a cache, a breaker) holds {e instance counters}: one cell
    each, linked to a series, so one increment is both the object's own
    count and part of the series total a scrape reports.

    Exposition is Prometheus-style text ([# HELP] / [# TYPE] /
    [name value] or [name{k="v"} value], histograms as
    [_bucket{le="..."}]/[_sum]/[_count]) sorted by name and then label
    set, so output for a given set of values is byte-stable. *)

type t

val create : unit -> t
val default : t
(** The process-global registry every production code path registers
    into.  Tests wanting byte-stable snapshots should {!create} their
    own. *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** The series of [name] with [labels] (default none), rendered
    [name{k="v",...}] with the labels sorted by name and their values
    escaped. *)

val instance :
  ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** A fresh instance counter linked to the series {!counter} returns for
    the same arguments: {!inc} adds to the instance's one cell and to
    the series' cell (two atomic adds), {!counter_value} reads the
    instance's own count.
    Instances are not registered: a scrape sees their increments only
    through the series, and {!reset} leaves them alone. *)

val inc : ?by:int -> counter -> unit
(** [by] defaults to 1.  @raise Invalid_argument on a negative [by]. *)

val counter_value : counter -> int

(** {1 Gauges} — a float that can move both ways; last write wins. *)

type gauge

val gauge : ?help:string -> t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} — fixed upper-bound buckets plus sum and count. *)

type histogram

val default_buckets : float array
(** Latency-in-seconds buckets: 1µs … 10s, decades. *)

val histogram : ?help:string -> ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit [+Inf]
    bucket is always appended.  Default {!default_buckets}.
    @raise Invalid_argument on empty or non-increasing buckets. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** Cumulative per-bucket counts [(upper_bound, count <= bound)], the
    [+Inf] bucket last (bound [infinity]). *)

(** {1 Snapshots} *)

val expose : t -> string
(** Prometheus text exposition, metrics sorted by name, series by label
    set; one [# HELP]/[# TYPE] header per name. *)

val to_json : t -> string
(** A one-line JSON snapshot:
    [{"counters":{...},"gauges":{...},"histograms":{...}}], keys
    sorted; a labelled series' key is its exposition name
    [name{k="v"}]. *)

val reset : t -> unit
(** Zero every registered series (series stay registered; instance
    counters keep their counts). *)
