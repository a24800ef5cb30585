(** Lowering: register-allocated limb IR → the Cinnamon ISA.  The
    registers are {!Regalloc}'s; each value's HBM address is its vreg
    id. *)

open Cinnamon_ir

(** Whole machine.  Raises [Cinnamon_util.Error] of kind
    [Invalid_input] for a compute whose source count its unit's
    instruction does not take (e.g. an NTT of two limbs). *)
val translate :
  num_regs:int ->
  n:int ->
  limb_bytes:int ->
  Limb_ir.t ->
  Cinnamon_isa.Isa.machine_program * Regalloc.stats array
