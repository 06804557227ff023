(** Process-wide metrics registry: counters, gauges and log2-bucketed
    histograms.

    Hot-path updates are lock-free — one [Atomic.fetch_and_add] on a
    per-shard slot picked by the calling domain's id — so Domain_pool
    workers instrument without contending. {!scrape} merges the shards
    by summation, which is order-independent: for a given set of
    recorded events the merged totals are identical no matter how the
    recording domains interleaved (proven by [test/test_registry.ml]).

    A process-wide {e ambient} registry follows the pipeline's
    [Probe.t option] discipline: {!ambient} is [None] until a front-end
    opts in with {!enable}, and every instrumentation point in the tree
    guards itself with one atomic load — disabled observability costs nothing and
    changes nothing. *)

type t

type counter
type gauge
type histogram

type kind = Counter | Gauge | Histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or retrieve — same name and labels return the same cell)
    a monotonically increasing counter. Metric names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*].
    @raise Invalid_argument on a bad name or a kind clash. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram

val inc : counter -> unit
val add : counter -> int -> unit

val gauge_set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
val gauge_max : gauge -> int -> unit
(** Raise the gauge to [v] if it is currently lower (CAS loop). *)

val gauge_get : gauge -> int

val observe : histogram -> int -> unit
(** Record one sample. Bucketing is by binary magnitude: bucket 0 holds
    [v <= 0] and bucket [b >= 1] holds [2^(b-1) <= v < 2^b]. *)

val num_buckets : int
val bucket_of : int -> int
val bucket_le : int -> int
(** Inclusive upper edge of a bucket ([2^b - 1]; [max_int] past the
    last bucket). *)

type hvalue = {
  buckets : int array;  (** raw (non-cumulative) counts, length {!num_buckets} *)
  h_count : int;
  h_sum : int;
}

type value = Counter_v of int | Gauge_v of int | Histogram_v of hvalue

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;  (** sorted by key *)
  s_value : value;
}

val scrape : t -> sample list
(** Deterministic snapshot: shards merged by summation, samples sorted
    by name then labels. Safe to call while writers are active — each
    cell is read atomically (totals may straddle an in-flight update,
    but a quiesced registry always scrapes its exact event counts). *)

val find_value : sample list -> string -> (string * string) list -> value option

val counter_value : sample list -> ?labels:(string * string) list -> string -> int
(** Convenience: the merged value of a counter (or gauge); 0 when the
    metric is absent. *)

val hist_percentile : hvalue -> float -> int
(** [hist_percentile hv p] with [p] in [0,1]: the smallest bucket upper
    edge covering at least [p] of the samples; 0 on an empty histogram.
    @raise Invalid_argument when [p] is outside [0,1]. *)

val reset : t -> unit
(** Zero every cell (registrations survive). For benches and tests. *)

(** {2 The ambient process registry} *)

val ambient : unit -> t option
val is_enabled : unit -> bool
val enable : unit -> t
(** Idempotent: creates the ambient registry on first call. *)

val disable : unit -> unit
val with_ambient : (t -> unit) -> unit
(** Run [f] on the ambient registry when observability is on; a single
    atomic load and no allocation when it is off. *)
