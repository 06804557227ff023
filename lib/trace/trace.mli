(** Materialized uop traces.

    A trace is the unit fed to the simulator: a named, finite sequence of
    dynamic uops with concrete values (the ground truth produced by
    {!Generator}).

    Storage is a packed structure-of-arrays ({!Hc_isa.Uop_soa.t}) and
    nothing else: the simulator, steering, codec, analyses and scans all
    read its columns. A trace keeps no [Uop.t] records; {!get}
    materializes one on demand for display and diagnostics. Immutable
    once built, so a trace is safe to share across domains. *)

type t = private {
  name : string;
  profile : Profile.t;  (** the profile the trace was generated from *)
  soa : Hc_isa.Uop_soa.t;
}

val make : name:string -> profile:Profile.t -> Hc_isa.Uop.t array -> t
(** Pack a record array into columns; the records are not retained. *)

val of_soa : name:string -> profile:Profile.t -> Hc_isa.Uop_soa.t -> t
(** Wrap packed columns — the generator's and the codec's build path. *)

val soa : t -> Hc_isa.Uop_soa.t

val length : t -> int

val get : t -> int -> Hc_isa.Uop.t
(** [get t i] materializes the [i]-th dynamic uop as a fresh record (for
    display, text output and diagnostics; hot paths read {!soa}).
    @raise Invalid_argument when out of bounds. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous sub-trace (uop ids are preserved, not renumbered). *)

val narrow_result_fraction : t -> float
(** Fraction of destination-producing uops whose ground-truth result is
    narrow — the headline statistic behind Fig 1. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line description: name, length, mix digest. *)
