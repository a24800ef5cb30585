(** Belady's MIN register allocation by a full scan of the register
    file per eviction: the reference semantics, registers included,
    that {!Cinnamon_compiler.Regalloc.allocate} must reproduce exactly. *)

val allocate :
  num_regs:int ->
  emit:(Cinnamon_ir.Limb_ir.instr -> int array -> int -> unit) ->
  Cinnamon_ir.Limb_ir.chip_program ->
  Cinnamon_compiler.Regalloc.assignment
