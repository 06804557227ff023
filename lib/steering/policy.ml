module Opcode = Hc_isa.Opcode
module Config = Hc_sim.Config
module Steer = Hc_sim.Steer
module Width_predictor = Hc_predictors.Width_predictor
module Carry_predictor = Hc_predictors.Carry_predictor
module Bundle = Hc_predictors.Bundle

let helper_capable op =
  match Opcode.exec_class op with
  | Opcode.Int_alu | Opcode.Mem | Opcode.Ctrl -> true
  | Opcode.Int_mul | Opcode.Fp -> false

(* The believed width of each source, as the rename stage sees it (actual
   when known, predicted otherwise), queried operand by operand. The
   recursion is top-level with explicit arguments so no closure is built:
   the whole decision path allocates nothing, so it runs on the
   simulator's per-uop hot path as-is. *)
let rec sources_narrow_from (ctx : Steer.ctx) i n k =
  k >= n
  || Steer.si_narrow (ctx.Steer.source_info i k)
     && sources_narrow_from ctx i n (k + 1)

(* §3.2: every source believed narrow, result predicted narrow with high
   confidence. Uops with no observable result only need narrow sources. *)
let decide_888 (ctx : Steer.ctx) i =
  let cfg = ctx.Steer.cfg and v = ctx.Steer.uops in
  if not (sources_narrow_from ctx i (Steer.nsrcs v i) 0) then false
  else if not (Steer.has_dest v i || Steer.writes_flags v i) then true
  else
    let width = ctx.Steer.preds.Bundle.width and pc = Steer.pc v i in
    Width_predictor.predict_narrow width pc
    && ((not cfg.Config.confidence_gate)
       || Width_predictor.predict_confident width pc)

(* §3.5: 8-32-32 shape as believed at rename — exactly one wide source —
   plus a confident carry-local prediction. Loads also need the loaded
   value predicted narrow: the helper register file is 8 bits wide and
   there is no upper-24 reconstruction tag for memory data. *)
let decide_cr (ctx : Steer.ctx) i op =
  let cfg = ctx.Steer.cfg and v = ctx.Steer.uops in
  if not (Opcode.carry_eligible op && Steer.nsrcs v i = 2) then false
  else begin
    let a = ctx.Steer.source_info i 0 and b = ctx.Steer.source_info i 1 in
    let wide_count =
      (if Steer.si_narrow a then 0 else 1) + if Steer.si_narrow b then 0 else 1
    in
    if wide_count <> 1 then false
    else begin
      let carry = ctx.Steer.preds.Bundle.carry and pc = Steer.pc v i in
      let carry_ok =
        Carry_predictor.predict_carry_local carry pc
        && ((not cfg.Config.confidence_gate)
           || Carry_predictor.predict_confident carry pc)
      in
      if not carry_ok then false
      else if op = Opcode.Load then begin
        let width = ctx.Steer.preds.Bundle.width in
        Width_predictor.predict_narrow width pc
        && ((not cfg.Config.confidence_gate)
           || Width_predictor.predict_confident width pc)
      end
      else true
    end
  end

(* §3.7: the wide backend is congested relative to the helper, and this uop
   can be cracked into byte lanes. *)
let decide_ir (ctx : Steer.ctx) op =
  let cfg = ctx.Steer.cfg in
  let eligible =
    match cfg.Config.scheme.Config.ir with
    | Config.Ir_off -> false
    | Config.Ir_all ->
      (* carry-rippling splits serialize their four lanes and delay any
         consumer (a flags-dependent branch for cmp); the profitable
         splits are the independent byte-lane ones *)
      (match op with
       | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Mov | Opcode.Store
       | Opcode.Add | Opcode.Sub -> true
       | _ -> false)
    | Config.Ir_no_dest -> op = Opcode.Store
  in
  (* splitting trades eight helper issue slots for one wide slot plus four
     copies: worth it exactly when the wide scheduler has a ready backlog
     (the NREADY signal of section 3.7) while the helper has headroom *)
  eligible
  && ctx.Steer.backlog_ewma_gt Config.Wide 1.0
  && ctx.Steer.ready_backlog Config.Narrow = 0
  && ctx.Steer.occupancy_lt Config.Narrow 0.35
  && ctx.Steer.rob_occupancy_lt 0.8

let decide (ctx : Steer.ctx) i =
  let scheme = ctx.Steer.cfg.Config.scheme in
  let op = Steer.op ctx.Steer.uops i in
  if not scheme.Config.helper then Steer.steer_wide
  else if not (helper_capable op) then Steer.steer_wide
  else if Opcode.is_branch op then begin
    (* §3.3: follow the flags producer into the helper cluster (the branch
       target was resolved in the frontend, so the flags value is the only
       input the backend needs) *)
    if scheme.Config.br && Steer.reads_flags ctx.Steer.uops i
       && ctx.Steer.flags_in_narrow ()
    then Steer.steer_br
    else Steer.steer_wide
  end
  else if op = Opcode.Store then
    if decide_ir ctx op then Steer.Split else Steer.steer_wide
  else begin
    if scheme.Config.s888 && decide_888 ctx i then Steer.steer_888
    else if scheme.Config.cr && decide_cr ctx i op then Steer.steer_cr
    else if decide_ir ctx op then Steer.Split
    else Steer.steer_wide
  end

(* Oracle counterpart of [decide]'s 8-8-8 rule: instead of predictor
   beliefs, steer on a static proof that the uop is all-narrow. The proof
   comes from outside (the [Hc_analysis] known-bits pass) as a plain
   predicate on trace positions so this library keeps zero dependency on
   the analysis. A
   provably-narrow uop can never trigger a width-violation recovery, so
   the resulting run is the predictor-free steering bound. [reason] tags
   the proof's flavor: R888 for the forward known-bits proof (ground
   truth is narrow, so the pipeline's dynamic check stays honest),
   Rlive for the bidirectional dead-width proof (values may be wide,
   only the observable bits are narrow — proof-carried, not dynamically
   checked). *)
let static_oracle ?(reason = Steer.R888) ~provably_narrow (ctx : Steer.ctx) i
    =
  let scheme = ctx.Steer.cfg.Config.scheme in
  let op = Steer.op ctx.Steer.uops i in
  if not scheme.Config.helper then Steer.steer_wide
  else if not (helper_capable op) then Steer.steer_wide
  else if Opcode.is_branch op || op = Opcode.Store then Steer.steer_wide
  else if provably_narrow i then Steer.steer_narrow_of reason
  else Steer.steer_wide

let stack = ("baseline", Config.monolithic) :: Config.scheme_stack
