(** Per-run simulation results.

    One {!t} is produced per (trace, configuration) simulation and carries
    every number the paper's figures are built from: IPC, steering and copy
    percentages, width-prediction outcome breakdown (Fig 5), NREADY
    imbalance (§3.7), copy-prefetch accuracy (§3.6), and the raw activity
    counters consumed by the power model. *)

type t = {
  name : string;  (** trace name *)
  scheme_name : string;
  committed : int;  (** trace uops committed *)
  ticks : int;  (** fast ticks elapsed (2 per wide cycle) *)
  copies : int;  (** inter-cluster copy uops generated (demand + prefetch) *)
  steered_narrow : int;  (** committed uops executed in the helper cluster *)
  split_uops : int;  (** committed uops that were IR-split *)
  steered_888 : int;
      (** attribution: committed helper-cluster uops earned by the
          all-narrow 8_8_8 rule (§3.2) *)
  steered_br : int;  (** attribution: flag-dependent branches (BR, §3.3) *)
  steered_cr : int;  (** attribution: carry-local one-wide-source uops (CR, §3.5) *)
  steered_ir : int;
      (** attribution: IR-split uops (§3.7); always equals [split_uops] *)
  steered_other : int;
      (** attribution: helper-cluster uops steered narrow without a
          recorded policy reason (only custom [decide] functions) *)
  wide_default : int;
      (** committed wide-cluster uops that were steered wide at rename *)
  wide_demoted : int;
      (** committed wide-cluster uops originally steered narrow and moved
          wide by width-violation recovery (flush or replay) — the commit
          cost of fatal width mispredictions *)
  wpred_correct : int;  (** width predictions matching the actual width *)
  wpred_fatal : int;  (** mispredictions that forced a squash-and-resteer *)
  wpred_nonfatal : int;  (** missed opportunities: mispredicted but safe *)
  prefetch_copies : int;  (** CP-injected copies *)
  prefetch_useful : int;  (** CP copies that a consumer actually used *)
  nready_w2n : int;  (** NREADY samples: ready in wide, idle slots in narrow *)
  nready_n2w : int;
  issued_total : int;  (** issue slots actually used, both clusters *)
  static_narrow_bound : int option;
      (** provably-narrow oracle steering bound of the trace this run
          simulated ([Hc_analysis.Static.steerable_count]): the
          helper-cluster commits a zero-recovery policy can reach. The
          pipeline itself reports [None]; [Hc_core.Runs] attaches the
          bound so exported metrics carry the headroom column. *)
  static_bidir_bound : int option;
      (** the tightened bidirectional oracle bound
          ([Hc_analysis.Static.bidir_steerable_count]): forward
          known-bits joined with backward live-bits. Always [>=]
          [static_narrow_bound] when both are present; attached by
          [Hc_core.Runs] like the forward bound. *)
  stall : Hc_obs.Accounting.totals option;
      (** top-down cycle-accounting totals, present only when the run was
          simulated with an accounting probe ([Pipeline.run ~probe]); the
          partition invariant ({!Hc_obs.Accounting.consistent}) holds
          exactly. *)
  counters : Hc_stats.Counter.t;  (** raw activity counters for the power model *)
}

val cycles : t -> float
(** Elapsed wide-cluster (slow) cycles: [ticks / 2]. *)

val ipc : t -> float
(** Committed trace uops per slow cycle. *)

val copy_pct : t -> float
(** Copies as a percentage of committed uops (Figs 7–9). *)

val steered_pct : t -> float
(** Helper-cluster instructions as a percentage of committed uops. *)

val wpred_accuracy_pct : t -> float
(** Fig 5: correct predictions over all predictions. *)

val wpred_fatal_pct : t -> float
val wpred_nonfatal_pct : t -> float

val cp_accuracy_pct : t -> float
(** §3.6: useful prefetches over issued prefetches; 0 when none issued. *)

val imbalance_w2n_pct : t -> float
(** NREADY wide→narrow imbalance normalized by used issue slots (§3.7). *)

val imbalance_n2w_pct : t -> float

val speedup_pct : baseline:t -> t -> float
(** Performance increase over the baseline run, in percent (Figs 6/12/14). *)

val steered_888_pct : t -> float
(** Attribution shares as percentages of committed uops. *)

val steered_br_pct : t -> float
val steered_cr_pct : t -> float
val steered_ir_pct : t -> float
val wide_demoted_pct : t -> float

val attrib_narrow_sum : t -> int
(** [steered_888 + steered_br + steered_cr + steered_ir + steered_other];
    equals [steered_narrow] on every run. *)

val attrib_consistent : t -> bool
(** The attribution invariants: narrow attribution columns sum to
    [steered_narrow], [steered_ir = split_uops], and the wide columns sum
    to [committed - steered_narrow]. *)

val stall_consistent : t -> bool
(** The cycle-accounting partition invariant on [stall]
    ({!Hc_obs.Accounting.consistent}); [true] vacuously when accounting was
    off. *)

val totals : t -> Hc_obs.Sample.totals
(** The run's dynamic counters as one interval-sampler snapshot: what
    {!Hc_obs.Sample.aggregate} of a whole-run series must equal. *)

val to_json : t -> string
(** The whole record as one JSON object — every dynamic count, the
    derived IPC/cycles, and the raw activity counters keyed by name.
    Shared by the CSV/JSON export layer and the telemetry writers so a
    run's numbers serialize identically everywhere. Carries
    ["schema"]:5 (schema 2 added the steering-attribution columns;
    schema 3 the optional ["static_narrow_bound"] key, present only
    when the bound is attached; schema 4 the optional ["stall"]
    cycle-accounting object, present only when accounting was on;
    schema 5 the optional ["static_bidir_bound"] key, the tightened
    bidirectional oracle bound). *)

val pp : Format.formatter -> t -> unit
