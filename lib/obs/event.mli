(** Per-uop pipeline lifecycle events.

    One flat record per event, pushed into a {!Ring} by the pipeline's
    instrumentation points. The record is int-heavy on purpose: building
    one allocates a single small block, and only when a tracing probe is
    attached — the hot path with tracing off never constructs events. *)

type kind =
  | Dispatch  (** renamed and inserted into an issue queue *)
  | Issue  (** won an issue slot *)
  | Writeback  (** execution completed; carries the span timestamps *)
  | Commit  (** retired from the ROB head *)
  | Squash  (** squashed-and-resteered by a fatal width misprediction *)
  | Flush  (** a width-mispredict flush fired (the offender's event) *)
  | Replay  (** ICS'05-style single-uop replay *)

type t = {
  tick : int;  (** fast-tick timestamp *)
  kind : kind;
  id : int;  (** pipeline node id (dispatch order) *)
  trace_idx : int;  (** trace position; [-1] for copy uops *)
  cluster : int;  (** 0 = wide, 1 = narrow, [-1] = none *)
  name : string;  (** opcode name, ["copy"], or ["slice"] *)
  a : int;  (** kind-specific: [Writeback] stores the dispatch tick *)
  b : int;  (** kind-specific: [Writeback] stores the issue tick *)
}

val dummy : t
(** Ring padding; never yielded by ring iteration. *)

val kind_name : kind -> string
val cluster_name : int -> string
val pp : Format.formatter -> t -> unit
