(** Interval metrics samples.

    Every N ticks the pipeline snapshots its cumulative result counters;
    the {!Probe} turns consecutive snapshots into per-interval deltas, so a
    run becomes a time series (program phases, predictor warm-up, copy
    bursts) whose column sums reproduce the end-of-run
    [Hc_sim.Metrics.t] exactly. *)

type totals = {
  committed : int;
  steered_narrow : int;
  copies : int;
  split_uops : int;
  steered_888 : int;  (** steering attribution, per reason (see Metrics) *)
  steered_br : int;
  steered_cr : int;
  steered_ir : int;
  steered_other : int;
  wide_default : int;
  wide_demoted : int;
  wpred_correct : int;
  wpred_fatal : int;
  wpred_nonfatal : int;
  prefetch_copies : int;
  prefetch_useful : int;
  nready_w2n : int;
  nready_n2w : int;
  issued_total : int;
}
(** Cumulative counter snapshot, field-for-field the dynamic counts of
    [Hc_sim.Metrics.t]. *)

val zero_totals : totals
val sub_totals : totals -> totals -> totals
val add_totals : totals -> totals -> totals

val attrib_consistent : totals -> bool
(** The attribution columns sum exactly to the steering totals: narrow
    attribution adds up to [steered_narrow], [steered_ir = split_uops],
    wide columns add up to [committed - steered_narrow]. Holds per
    interval and (by linearity) for any {!aggregate}. *)

type t = {
  t_start : int;  (** first tick of the interval (exclusive start) *)
  t_end : int;  (** tick the snapshot was taken *)
  d : totals;  (** deltas over the interval *)
  iq_wide : int;  (** wide issue-queue occupancy at [t_end] *)
  iq_narrow : int;
  rob : int;  (** ROB occupancy at [t_end] *)
  wpred_accuracy : float;  (** correct / all predictions resolved, % *)
}

val make :
  t_start:int -> t_end:int -> iq_wide:int -> iq_narrow:int -> rob:int ->
  totals -> t

val ipc : t -> float
(** Committed uops per wide (slow) cycle over the interval. *)

val aggregate : t list -> totals
(** Column sums of the deltas — equals the final run totals when the
    series covers the whole run. *)

val csv_header : string
val to_csv_row : t -> string
val to_json : t -> string
