(** Process-wide metrics registry: typed counters and fixed-bucket
    histograms with atomic updates, rendered as Prometheus text-format or
    JSON.

    Metrics are interned by name: registering the same name twice returns
    the same metric; registering it with a different type raises
    [Invalid_argument].  Names are canonicalised to the Prometheus charset
    (['.'], ['-'] and spaces map to ['_']).  Updates are lock-free
    ([Atomic]), so counters stay exact under [Dpool] fan-out. *)

type counter
type histogram

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val default_buckets : float array
(** The bucket boundaries used when [histogram] is given none: strictly
    increasing, 0.25 .. 10000 (suiting millisecond latencies up to
    10 s). *)

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing finite upper bounds; an implicit
    [+Inf] bucket is always appended.  The default buckets suit
    millisecond latencies (0.25 ms .. 10 s). *)

val observe : histogram -> float -> unit
(** Records [v] in the first bucket with [v <= upper_bound] (Prometheus
    [le] semantics, boundary inclusive). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** Per-bucket (non-cumulative) counts as [(upper_bound, n)] pairs; the
    final pair's bound is [infinity]. *)

val snapshot : unit -> (string * float) list
(** Every registered value as a flat name-sorted association list;
    histograms contribute [name_count] and [name_sum].  Subtracting two
    snapshots gives interval deltas (used by [bench -- sat]). *)

val to_prometheus : unit -> string
(** Prometheus text exposition format, name-sorted, with [# TYPE] lines
    and cumulative histogram buckets. *)

val to_json : unit -> Thr_util.Json.t
(** Name-sorted object: counters as ints, histograms as
    [{"count": .., "sum": .., "buckets": [{"le": .., "n": ..}, ..]}]. *)

val reset : unit -> unit
(** Zero every registered metric (registrations persist).  For tests. *)
