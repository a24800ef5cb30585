(** Register allocation with Belady's MIN (paper §4.4): evict the live
    value with the farthest next use, spilling to HBM when it will be
    used again.  With stable evalkey/plaintext identities this doubles
    as the on-chip cache model (the paper's Fig. 6 sharing effect). *)

open Cinnamon_ir

type stats = { spills : int; reloads : int; peak_live : int }

type assignment = {
  n_regs : int;  (** registers used: every register named lies in [\[0, n_regs)] *)
  stats : stats;
}

(** Allocate one chip's stream onto [num_regs] vector registers.  The
    stream must define each vreg once, before reading it, as
    {!Limb_ir}'s builder does.

    [emit ins regs k] is called once per instruction of the allocated
    stream, in order: [ins] is an instruction of the input or a spill
    [Store v] / reload [Load v] the allocator inserted.  The registers
    of [ins]'s operands, its reads and then its writes, each in operand
    order, are [regs.(k)], [regs.(k + 1)], ...; [regs] is the
    allocator's scratch and holds them only during the call.

    O(log num_regs) per eviction.  Raises [Cinnamon_util.Error] of kind
    [Capacity] if an instruction's operands alone exceed the file. *)
val allocate :
  num_regs:int ->
  emit:(Limb_ir.instr -> int array -> int -> unit) ->
  Limb_ir.chip_program ->
  assignment
