(** A probe: what one pipeline run records about itself.

    The pipeline holds a [Probe.t option] with one hook per kind of
    event: uop lifecycle ({!emit}), stage round ({!add}, {!round}),
    interval boundary ({!boundary}) and run end (a last {!boundary}).
    With [None] each hook is one match on an immutable field and the hot
    path allocates nothing. A probe arms up to three recorders:
    - the event ring ([tracing]), a bounded {!Ring} of {!Event}s;
    - the interval sampler ([interval > 0]), a {!Sample} time series;
    - the slot accumulator ([accounting]), top-down {!Accounting} counts
      whose stall intervals close at the sampler's boundaries.

    One probe belongs to one run; it is not thread-safe and never shared
    across domains. *)

type t

val create :
  ?ring_capacity:int -> ?interval:int -> ?accounting:bool -> tracing:bool ->
  unit -> t
(** [ring_capacity] defaults to 65536 events, [interval] (ticks) to 0 =
    off, [accounting] to [false]. *)

val tracing : t -> bool
val accounting : t -> bool

(** {2 Pipeline side} *)

val start : t -> issue_width:int -> commit_width:int -> unit
(** Size the slot accumulator from the stage widths of the run the probe
    is attached to; the pipeline calls it when the run starts. *)

val emit : t -> Event.t -> unit
(** No-op without [tracing]. *)

val add : t -> lane:int -> Accounting.category -> int -> unit
val round : t -> lane:int -> unit
(** Close one stage round of [lane]; the pipeline {!add}s exactly the
    lane's width in slots per round. *)

val due : t -> tick:int -> bool
(** The sampler is armed and [tick] is a positive multiple of its
    interval. *)

val boundary :
  t -> tick:int -> iq_wide:int -> iq_narrow:int -> rob:int -> Sample.totals ->
  unit
(** Close the open interval at [tick], given the cumulative metrics
    [totals]: a metrics sample when the sampler is armed, a stall
    interval when the accumulator is, both against the one shared
    previous boundary. Ignored unless [tick] advanced past it. Called
    again at run end, it flushes the tail: the series sum to the run's
    totals, and an accounting-only probe gets one whole-run interval. *)

val stall_totals : t -> Accounting.totals option
(** The slot totals so far; [None] without [accounting]. *)

(** {2 Reader side} *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val events_dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val events_pushed : t -> int
val sample_count : t -> int
val samples : t -> Sample.t list

val stall_intervals : t -> Accounting.interval list
(** Chronological, like {!samples}. *)

val summary : t -> string
(** One line: events pushed/dropped and sample count. *)

val dropped_warning : t -> string option
(** A warning when ring wrap-around dropped events. *)
