(* Lowering: register-allocated limb IR -> the Cinnamon ISA.

   [Regalloc] hands over every instruction of the allocated stream,
   spill traffic included, with the physical register of each operand;
   this pass translates them one by one as they arrive.  HBM addresses
   are vreg ids: each value's home is the address equal to its id, so a
   load, a store, a spill and its reload of one value all name it. *)

open Cinnamon_ir
module L = Limb_ir
module I = Cinnamon_isa.Isa
module Error = Cinnamon_util.Error

(* One instruction whose operand registers, reads then writes, are
   [regs.(k)], [regs.(k + 1)], ... *)
let instr (ins : L.instr) regs k : I.instr =
  let reg j = regs.(k + j) in
  let regs_from j n = List.init n (fun x -> regs.(k + j + x)) in
  match ins with
  | L.Compute c -> begin
    let n = List.length c.L.srcs in
    let dst = reg n in
    match (c.L.fu, n) with
    | L.Fu_add, 2 -> I.Valu { op = I.Op_add; dst; a = reg 0; b = reg 1 }
    | L.Fu_add, 1 -> I.Valu_scalar { op = I.Op_add; dst; a = reg 0; scalar = 0 }
    | L.Fu_mul, 2 -> I.Valu { op = I.Op_mul; dst; a = reg 0; b = reg 1 }
    | L.Fu_mul, 1 -> I.Valu_scalar { op = I.Op_mul; dst; a = reg 0; scalar = 0 }
    | L.Fu_ntt, 1 -> I.Vntt { dst; src = reg 0 }
    | L.Fu_intt, 1 -> I.Vintt { dst; src = reg 0 }
    | L.Fu_auto, 1 -> I.Vauto { dst; src = reg 0; galois = 0 }
    | L.Fu_bconv, _ -> I.Vbconv { dst; srcs = regs_from 0 n; macs = c.L.macs }
    | L.Fu_transpose, 1 -> I.Vtranspose { dst; src = reg 0 }
    | L.Fu_prng, 0 -> I.Vprng { dst }
    | _, n ->
      Error.failf Error.Invalid_input
        "Lower_isa: the compute defining v%d has %d source(s), which its unit's instruction does not take"
        c.L.dst n
  end
  | L.Load v -> I.Vload { dst = reg 0; addr = v }
  | L.Store v -> I.Vstore { src = reg 0; addr = v }
  | L.Collective { kind; group; limbs; id; sends; recvs } -> (
    let n = List.length sends in
    let sends = regs_from 0 n and recvs = regs_from n (List.length recvs) in
    match kind with
    | L.Broadcast -> I.Net_bcast { group; limbs; coll_id = id; sends; recvs }
    | L.Aggregate_scatter -> I.Net_agg { group; limbs; coll_id = id; sends; recvs })

let translate_chip ~num_regs (cp : L.chip_program) : I.program * Regalloc.stats =
  let out = ref [] and len = ref 0 in
  let emit ins regs k =
    out := instr ins regs k :: !out;
    incr len
  in
  let alloc = Regalloc.allocate ~num_regs ~emit cp in
  let instrs = match !out with [] -> [||] | last :: _ -> Array.make !len last in
  List.iteri (fun j ins -> instrs.(!len - 1 - j) <- ins) !out;
  ({ I.chip = cp.L.chip; instrs; n_regs = alloc.Regalloc.n_regs }, alloc.Regalloc.stats)

let translate ~num_regs ~n ~limb_bytes (t : L.t) : I.machine_program * Regalloc.stats array =
  let pairs = Array.map (translate_chip ~num_regs) t.L.chips in
  ({ I.programs = Array.map fst pairs; limb_bytes; n }, Array.map snd pairs)
