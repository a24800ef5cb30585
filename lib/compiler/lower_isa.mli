(** Lowering: register-allocated limb IR → the Cinnamon ISA, with HBM
    address assignment. *)

open Cinnamon_ir

(** Whole machine. *)
val translate :
  num_regs:int ->
  n:int ->
  limb_bytes:int ->
  Limb_ir.t ->
  Cinnamon_isa.Isa.machine_program * Regalloc.stats array
