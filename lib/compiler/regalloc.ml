(* Register allocation with Belady's MIN (paper §4.4).

   The Cinnamon compiler allocates the vector register file with
   Belady's optimal replacement: when a register is needed and the file
   is full, evict the live value whose next use is farthest in the
   future (spilling it to HBM if it will be used again), and insert
   loads as early as possible (here: at the point of use; hoisting is a
   scheduler concern the simulator's memory queue models).

   Input: one chip's limb-IR instruction list, which defines each vreg
   once, before reading it (as [Limb_ir]'s builder emits).
   Output: the same stream with Load/Store spill traffic made explicit,
   handed instruction by instruction to a callback together with the
   physical register of every operand, plus spill statistics.  The
   allocator is the only place register names are chosen; [Lower_isa]
   writes them into the ISA as they arrive.

   Cost: O(1) per operand and O(log R) per eviction for an R-register
   file.  The chip's vregs get dense local ids, so every per-value
   table is an array sized to the values this chip touches, and one
   backward pass gives every operand the next instruction that reads
   its value.  The resident registers sit in an indexed binary max-heap
   keyed by (next use descending, register ascending), which is exactly
   the order in which a linear scan with a strict [>] over ascending
   registers would pick its victim. *)

open Cinnamon_ir
module L = Limb_ir

type stats = { spills : int; reloads : int; peak_live : int }

type assignment = {
  n_regs : int; (* registers handed out: every register named lies in [0, n_regs) *)
  stats : stats;
}

module Vreg_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

let allocate ~num_regs ~emit (cp : L.chip_program) : assignment =
  let n = List.length cp.L.instrs in
  (* Operand slots: instruction [i] owns slots [first.(i)] to
     [first.(i + 1) - 1], its reads first. *)
  let first = Array.make (n + 1) 0 in
  let count k _ = k + 1 in
  List.iteri
    (fun i ins -> first.(i + 1) <- L.fold_writes count (L.fold_reads count first.(i) ins) ins)
    cp.L.instrs;
  (* Dense chip-local ids: [ops.(k)] is 2 * the local id of slot [k]'s
     value, plus 1 if the slot defines it; [glob] maps a local id back
     to its vreg.  A chip defines about one value per instruction,
     which sizes [local]. *)
  let ops = Array.make first.(n) 0 in
  let local = Vreg_tbl.create (max 16 n) in
  let glob = ref [||] and n_vals = ref 0 and k = ref 0 in
  let visit def () v =
    let id =
      match Vreg_tbl.find_opt local v with
      | Some id -> id
      | None ->
        let id = !n_vals in
        if id = Array.length !glob then glob := Array.append !glob (Array.make (max 64 id) 0);
        !glob.(id) <- v;
        Vreg_tbl.add local v id;
        incr n_vals;
        id
    in
    ops.(!k) <- (2 * id) + def;
    incr k
  in
  let on_read = visit 0 and on_write = visit 1 in
  List.iter (fun ins -> L.fold_writes on_write (L.fold_reads on_read () ins) ins) cp.L.instrs;
  let glob = !glob and n_vals = !n_vals in
  (* [next.(k)]: the first instruction after slot [k]'s that reads its
     value, or [max_int]. *)
  let next = Array.make first.(n) max_int in
  let upcoming = Array.make n_vals max_int in
  for i = n - 1 downto 0 do
    for k = first.(i) to first.(i + 1) - 1 do
      next.(k) <- upcoming.(ops.(k) lsr 1)
    done;
    for k = first.(i) to first.(i + 1) - 1 do
      if ops.(k) land 1 = 0 then upcoming.(ops.(k) lsr 1) <- i
    done
  done;
  (* Per value: [reg_of] its register or -1.  Per register: [vreg_in]
     its value or -1, [reg_next_use] the next instruction that reads it
     (the heap key), [claimed.(r) = i] while it holds an operand
     instruction [i] has read or written, which [i] must not evict (a
     collective's later receives would otherwise evict its earlier
     ones). *)
  let reg_of = Array.make n_vals (-1) in
  let spilled = Bytes.make n_vals '\000' in
  let vreg_in = Array.make num_regs (-1) in
  let reg_next_use = Array.make num_regs max_int in
  let claimed = Array.make num_regs (-1) in
  let next_free = ref 0 in
  (* Indexed binary max-heap over the resident registers: [heap] in
     heap order, [slot.(r)] the position of register [r] in it or -1. *)
  let heap = Array.make num_regs 0 in
  let slot = Array.make num_regs (-1) in
  let size = ref 0 in
  let above a b =
    let na = reg_next_use.(a) and nb = reg_next_use.(b) in
    na > nb || (na = nb && a < b)
  in
  let place j r =
    heap.(j) <- r;
    slot.(r) <- j
  in
  let rec sift_up j r =
    let p = (j - 1) / 2 in
    if j > 0 && above r heap.(p) then begin
      place j heap.(p);
      sift_up p r
    end
    else place j r
  in
  let rec sift_down j r =
    let c = (2 * j) + 1 in
    if c >= !size then place j r
    else
      let c = if c + 1 < !size && above heap.(c + 1) heap.(c) then c + 1 else c in
      if above heap.(c) r then begin
        place j heap.(c);
        sift_down c r
      end
      else place j r
  in
  let push r =
    incr size;
    sift_up (!size - 1) r
  in
  let pop () =
    let r = heap.(0) in
    decr size;
    slot.(r) <- -1;
    if !size > 0 then sift_down 0 heap.(!size);
    r
  in
  let rekey r key =
    let old = reg_next_use.(r) in
    reg_next_use.(r) <- key;
    if key > old then sift_up slot.(r) r else if key < old then sift_down slot.(r) r
  in
  let spills = ref 0 and reloads = ref 0 and peak = ref 0 in
  let live = ref 0 in
  (* A spill store or reload has one operand, passed in [one]. *)
  let one = [| 0 |] in
  let emit_spill ins r =
    one.(0) <- r;
    emit ins one 0
  in
  let evict_one i =
    (* Belady: the victim is the resident value with the farthest next
       use, skipping claimed registers.  It stays in the heap until
       [occupy] rekeys it, so a plain eviction costs one sift-down. *)
    let rec victim aside =
      if !size = 0 then
        Cinnamon_util.Error.fail Cinnamon_util.Error.Capacity
          "Regalloc: register file too small for instruction operands";
      let r = heap.(0) in
      if claimed.(r) = i then victim (pop () :: aside)
      else begin
        List.iter push aside;
        r
      end
    in
    let r = victim [] in
    let id = vreg_in.(r) in
    reg_of.(id) <- -1;
    decr live;
    if reg_next_use.(r) <> max_int && Bytes.get spilled id = '\000' then begin
      Bytes.set spilled id '\001';
      incr spills;
      emit_spill (L.Store glob.(id)) r
    end;
    vreg_in.(r) <- -1;
    r
  in
  let alloc_reg i =
    if !next_free < num_regs then begin
      let r = !next_free in
      incr next_free;
      r
    end
    else evict_one i
  in
  let occupy id r key =
    vreg_in.(r) <- id;
    reg_of.(id) <- r;
    if slot.(r) >= 0 then rekey r key
    else begin
      reg_next_use.(r) <- key;
      push r
    end;
    incr live;
    peak := max !peak !live
  in
  let read i k =
    let id = ops.(k) lsr 1 and key = next.(k) in
    let r = reg_of.(id) in
    let r =
      if r >= 0 then begin
        rekey r key;
        r
      end
      else begin
        let r = alloc_reg i in
        occupy id r key;
        if Bytes.get spilled id <> '\000' then incr reloads;
        emit_spill (L.Load glob.(id)) r;
        r
      end
    in
    claimed.(r) <- i;
    r
  in
  let write i k =
    let r = alloc_reg i in
    occupy (ops.(k) lsr 1) r next.(k);
    claimed.(r) <- i;
    r
  in
  (* Once a slot has its register, its value id is no longer needed:
     the slot holds the register from then on, and [emit] reads the
     instruction's registers from there. *)
  List.iteri
    (fun i ins ->
      for k = first.(i) to first.(i + 1) - 1 do
        ops.(k) <- (if ops.(k) land 1 = 0 then read i k else write i k)
      done;
      emit ins ops first.(i))
    cp.L.instrs;
  { n_regs = !next_free; stats = { spills = !spills; reloads = !reloads; peak_live = !peak } }
