(** Packed structure-of-arrays trace storage.

    A [t] stores a whole uop sequence as parallel columns of immediate
    ints ([int array]/[Bytes]): ids, pcs, dense opcode indices, dense
    destination-register indices, results, memory addresses and a packed
    flag byte per uop, with operands flattened into shared
    register-index/value columns addressed through a prefix-offset
    column. This is the only trace representation production code
    reads: the simulator, steering, the static analyses, the trace scans
    and the HCTB codec walk these columns without allocating or
    constructing [Uop.t] records.

    Records appear only at the edges: {!add} and {!of_uops} pack them
    (trace generation, the text reader), {!get} materializes one for
    display and diagnostics, and {!to_uops} serves tests. *)

type t = private {
  len : int;
  ids : int array;
  pcs : int array;
  ops : int array;  (** {!Opcode.to_index} *)
  dsts : int array;  (** {!Reg.to_index}, or [-1] for no destination *)
  results : int array;
  mem_addrs : int array;
  flags : Bytes.t;
      (** bit 0 taken, 1 mispredicted, 2 dl0_miss, 3 ul1_miss *)
  src_off : int array;  (** [len + 1] prefix offsets into operand columns *)
  src_regs : int array;  (** flattened; {!Reg.to_index}, or [-1] = immediate *)
  src_vals : int array;  (** flattened concrete source values *)
}

val flag_taken : int
val flag_mispredicted : int
val flag_dl0 : int
val flag_ul1 : int

val length : t -> int

(** {1 Per-uop accessors} — all O(1) and allocation-free. *)

val id : t -> int -> int
val pc : t -> int -> int
val op_index : t -> int -> int
val op : t -> int -> Opcode.t
val dst_index : t -> int -> int
(** [-1] when the uop has no destination register. *)

val has_dest : t -> int -> bool
val result : t -> int -> int
val mem_addr : t -> int -> int
val taken : t -> int -> bool
val branch_mispredicted : t -> int -> bool
val dl0_miss : t -> int -> bool
val ul1_miss : t -> int -> bool
val writes_flags : t -> int -> bool
val reads_flags : t -> int -> bool

val src_base : t -> int -> int
(** Absolute index of uop [i]'s first operand in the flattened columns. *)

val nsrcs : t -> int -> int

val src_reg : t -> int -> int
(** Register index of flattened operand [j] ([-1] for an immediate);
    [j] ranges over [src_base t i .. src_base t i + nsrcs t i - 1]. *)

val src_val : t -> int -> int
(** Concrete value of flattened operand [j]. *)

(** {1 Ground-truth width shapes}

    The single definition of each shape, against a helper datapath of
    [bits] bits (the paper's helper is [~bits:8]). The simulator's
    width-misprediction check, predictor training, the Fig 11 scan and
    the ablation oracle all read these. *)

val all_srcs_narrow_bits : bits:int -> t -> int -> bool
(** Every concrete source value fits the helper datapath. *)

val is_888_bits : bits:int -> t -> int -> bool
(** 8-8-8 eligibility: every source value narrow and, when the uop
    produces anything observable (a destination register or the flags),
    a narrow result too. *)

val is_8_32_32_bits : bits:int -> t -> int -> bool
(** CR shape (§3.5): two sources, exactly one wide, with a wide
    {!shape_result}. *)

val carry_not_propagated_bits : bits:int -> t -> int -> bool
(** For a carry-eligible uop of the 8-32-32 shape: did the traced
    execution leave the upper bits of the wide source unchanged
    (Fig 10)? [false] when the shape or opcode does not apply. *)

val shape_result : t -> int -> int
(** The value whose width classifies the uop: AGU output (the effective
    address, Fig 10) for memory uops, [result] otherwise. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous slice with operand offsets rebased; ids are preserved.
    @raise Invalid_argument on out-of-range windows. *)

(** {1 Sequential builder}

    Fill target for decoders that know the uop count up front: push a
    uop's operands with {!push_src}, then {!close_uop} it; repeat in
    order, and {!build} once all [len] uops are closed. *)

type builder

val builder : int -> builder

val push_src : builder -> reg:int -> v:int -> unit
(** [reg] is a {!Reg.to_index} or [-1] for an immediate. *)

val pending_src_val : builder -> int -> int
(** Value of operand [k] (already pushed) of the uop currently open. *)

val pending_nsrcs : builder -> int

val close_uop :
  builder ->
  id:int ->
  pc:int ->
  op:int ->
  dst:int ->
  result:int ->
  mem_addr:int ->
  flags:int ->
  unit

val build : builder -> t
(** @raise Invalid_argument unless exactly [len] uops were closed. *)

(** {1 Record converters} *)

val add : builder -> Uop.t -> unit
(** Push one record's operands and close it.
    @raise Invalid_argument when an immediate operand disagrees with its
    recorded source value (the columns keep one value per operand). *)

val of_uops : Uop.t array -> t

val get : t -> int -> Uop.t
(** Materialize the record of uop [i]. *)

val to_uops : t -> Uop.t array
(** [to_uops (of_uops a) = a]. *)
