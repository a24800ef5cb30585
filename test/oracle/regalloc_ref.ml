(* The linear-scan form of Belady's MIN register allocator: every
   eviction scans the whole register file for the resident value with
   the farthest next use, lowest register first on ties.  Kept as the
   differential oracle for {!Cinnamon_compiler.Regalloc.allocate},
   which must emit the same instructions with the same registers and
   return the same statistics (or the same typed [Capacity] error) on
   every program.  Free registers are handed out lowest first. *)

open Cinnamon_ir
module L = Limb_ir
open Cinnamon_compiler.Regalloc

let allocate ~num_regs ~emit (cp : L.chip_program) : assignment =
  let arr = Array.of_list cp.L.instrs in
  (* Use positions per vreg with a monotone cursor: queries arrive with
     nondecreasing instruction indices, so lookup is O(1) amortized. *)
  let uses : (L.vreg, int array * int ref) Hashtbl.t = Hashtbl.create 1024 in
  let tmp : (L.vreg, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri
    (fun i instr ->
      let reads =
        match instr with
        | L.Compute c -> c.L.srcs
        | L.Store v -> [ v ]
        | L.Collective { sends; _ } -> sends
        | L.Load _ -> []
      in
      List.iter
        (fun v ->
          match Hashtbl.find_opt tmp v with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add tmp v (ref [ i ]))
        reads)
    arr;
  Hashtbl.iter (fun v l -> Hashtbl.add uses v (Array.of_list (List.rev !l), ref 0)) tmp;
  let next_use_after v i =
    match Hashtbl.find_opt uses v with
    | None -> max_int
    | Some (positions, cursor) ->
      let n = Array.length positions in
      while !cursor < n && positions.(!cursor) <= i do
        incr cursor
      done;
      if !cursor < n then positions.(!cursor) else max_int
  in
  (* machine state *)
  let reg_of : (L.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  let vreg_in = Array.make num_regs None in
  (* cached next-use position of each resident register, so Belady's
     eviction scan is a plain int-array max (no hashing) *)
  let reg_next_use = Array.make num_regs max_int in
  let free = ref (List.init num_regs (fun r -> r)) in
  let spilled : (L.vreg, unit) Hashtbl.t = Hashtbl.create 64 in
  let spills = ref 0 and reloads = ref 0 and peak = ref 0 in
  let live = ref 0 in
  let used = ref 0 in
  let emit_regs ins regs = emit ins (Array.of_list regs) 0 in
  let evict_one i ~forbidden =
    (* Belady: evict the resident vreg with the farthest next use. *)
    let best = ref (-1) and best_dist = ref (-1) in
    for r = 0 to num_regs - 1 do
      if vreg_in.(r) <> None && reg_next_use.(r) > !best_dist && not (List.mem r forbidden) then begin
        best_dist := reg_next_use.(r);
        best := r
      end
    done;
    if !best < 0 then
      Cinnamon_util.Error.fail Cinnamon_util.Error.Capacity
        "Regalloc: register file too small for instruction operands";
    let r = !best in
    (match vreg_in.(r) with
    | Some v ->
      Hashtbl.remove reg_of v;
      decr live;
      if next_use_after v i <> max_int && not (Hashtbl.mem spilled v) then begin
        Hashtbl.add spilled v ();
        incr spills;
        emit_regs (L.Store v) [ r ]
      end
    | None -> ());
    vreg_in.(r) <- None;
    reg_next_use.(r) <- max_int;
    r
  in
  let alloc_reg i ~forbidden =
    match !free with
    | r :: rest ->
      free := rest;
      used := max !used (r + 1);
      r
    | [] -> evict_one i ~forbidden
  in
  let ensure_resident i v ~forbidden =
    match Hashtbl.find_opt reg_of v with
    | Some r ->
      reg_next_use.(r) <- next_use_after v i;
      r
    | None ->
      let r = alloc_reg i ~forbidden in
      vreg_in.(r) <- Some v;
      Hashtbl.replace reg_of v r;
      reg_next_use.(r) <- next_use_after v i;
      incr live;
      peak := max !peak !live;
      if Hashtbl.mem spilled v then incr reloads;
      emit_regs (L.Load v) [ r ];
      r
  in
  let define i v ~forbidden =
    let r = alloc_reg i ~forbidden in
    vreg_in.(r) <- Some v;
    Hashtbl.replace reg_of v r;
    reg_next_use.(r) <- next_use_after v i;
    incr live;
    peak := max !peak !live;
    r
  in
  (* An instruction's registers, read or written, are off limits to
     the evictions of its later operands. *)
  Array.iteri
    (fun i instr ->
      let forbidden = ref [] in
      let claim r =
        forbidden := r :: !forbidden;
        r
      in
      let read v = claim (ensure_resident i v ~forbidden:!forbidden) in
      let write v = claim (define i v ~forbidden:!forbidden) in
      match instr with
      | L.Compute c ->
        let srcs = List.map read c.L.srcs in
        emit_regs instr (srcs @ [ write c.L.dst ])
      | L.Load v -> emit_regs instr [ write v ]
      | L.Store v -> emit_regs instr [ read v ]
      | L.Collective { sends; recvs; _ } ->
        let sends = List.map read sends in
        emit_regs instr (sends @ List.map write recvs))
    arr;
  { n_regs = !used; stats = { spills = !spills; reloads = !reloads; peak_live = !peak } }
