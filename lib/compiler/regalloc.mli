(** Register allocation with Belady's MIN (paper §4.4): evict the live
    value with the farthest next use, spilling to HBM when it will be
    used again.  With stable evalkey/plaintext identities this doubles
    as the on-chip cache model (the paper's Fig. 6 sharing effect). *)

open Cinnamon_ir

type stats = { spills : int; reloads : int; peak_live : int }

type assignment = {
  instrs : Limb_ir.instr list;
      (** the input stream with spill Load/Store inserted; operands are
          still vregs, not the registers the allocator picked *)
  n_regs : int;
  stats : stats;
}

(** Allocate one chip's stream onto [num_regs] vector registers.  The
    stream must define each vreg once, before reading it, as
    {!Limb_ir}'s builder does.  O(log num_regs) per eviction.  Raises
    [Cinnamon_util.Error] of kind [Capacity] if an instruction's
    operands alone exceed the file. *)
val allocate : num_regs:int -> Limb_ir.chip_program -> assignment
