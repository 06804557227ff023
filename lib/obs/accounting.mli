(** Top-down cycle accounting.

    Every round of each issue stage and of the commit stage attributes
    its slots to a disjoint taxonomy, so per lane

    {v sum over categories = stage width x rounds accounted v}

    holds exactly — the same no-tolerance partition discipline as the
    steering-attribution counters. The classification of blocked slots
    lives in the simulator's pipeline (it needs the node internals) and
    the live counters in {!Probe}; this module owns the taxonomy, the
    totals, the invariant check and the serialized forms. *)

(** One slot, one owner. *)
type category =
  | Issued  (** the slot did useful work (issued / committed a uop) *)
  | Frontend  (** starved: fetch stalled (branch penalty, TC miss) *)
  | Dispatch  (** dispatch blocked on a full ROB / issue queue / regfile *)
  | Wait_operands
      (** occupants wait on in-flight producers (or the ROB head is
          still executing a non-memory uop) *)
  | Wait_copy  (** occupants wait on inter-cluster communication *)
  | Memory  (** blocked behind an in-flight load, or a full MOB *)
  | Width_recovery  (** wide side draining a width-violation flush *)
  | Drained  (** narrow side emptied by a width-violation flush *)
  | Idle  (** nothing ready, no stall source to blame *)

val ncat : int
val cat_index : category -> int
val cat_name : category -> string
val categories : category list  (** in {!cat_index} order *)

val lane_wide : int
val lane_narrow : int
val lane_commit : int
val nlanes : int
val lane_name : int -> string

type totals = {
  issue_width : int;
  commit_width : int;
  slots : int array array;  (** [nlanes][ncat] category slot counts *)
  rounds : int array;  (** [nlanes] stage rounds accounted *)
}

val zero_totals : issue_width:int -> commit_width:int -> totals
val copy_totals : totals -> totals
val add_totals : totals -> totals -> totals
val sub_totals : totals -> totals -> totals
val lane_width : totals -> int -> int
val lane_sum : totals -> int -> int
val get : totals -> lane:int -> category -> int
val share_pct : totals -> lane:int -> category -> float
(** Category share of the lane's total slots, in percent. *)

val consistent : totals -> bool
(** The partition invariant, exact per lane (holds for interval deltas
    too, by linearity). *)

type interval = { iv_start : int; iv_end : int; iv_d : totals }
(** One closed interval of the stall time series: the slot delta from
    tick [iv_start] to tick [iv_end]. {!Probe} records them. *)

val csv_header : string
val interval_csv_row : interval -> string

val json_fragment : totals -> string
(** The ["stall"] object embedded in [Metrics.to_json] (schema 4):
    widths, then per lane the round count and every category count. *)
