(* Limb-level IR (paper Fig. 7, steps 4-7).

   At this level every value is a single limb — one residue polynomial
   of N coefficients — placed on a specific chip.  Compute ops map
   one-to-one onto vector functional units; communication appears as
   explicit collective ops (broadcast / aggregate+scatter) involving a
   set of chips, which is where the cost of parallel keyswitching
   becomes visible to the scheduler and simulator. *)

type vreg = int (* virtual limb register, unique program-wide *)

type fu = Fu_add | Fu_mul | Fu_ntt | Fu_intt | Fu_auto | Fu_bconv | Fu_transpose | Fu_prng

type compute = {
  fu : fu;
  dst : vreg;
  srcs : vreg list;
  (* Base conversion accumulates over many input limbs; [macs] records
     how many multiply-accumulate passes the op performs (1 for plain
     vector ops). *)
  macs : int;
}

type collective_kind = Broadcast | Aggregate_scatter

type instr =
  | Compute of compute
  | Load of vreg (* HBM -> register file (evalkeys, plaintexts, spills) *)
  | Store of vreg
  | Collective of {
      kind : collective_kind;
      group : int list; (* participating chips *)
      limbs : int; (* limbs moved (per direction), summed over chips *)
      id : int; (* matching id across chips *)
      sends : vreg list; (* this chip's contribution *)
      recvs : vreg list; (* limbs materialized on this chip *)
    }

(* The one definition of an instruction's operands, in operand order:
   [fold_reads] visits the values it reads, [fold_writes] the values it
   defines.  A collective reads its sends and writes its recvs. *)
let fold_reads f acc = function
  | Compute c -> List.fold_left f acc c.srcs
  | Load _ -> acc
  | Store v -> f acc v
  | Collective { sends; _ } -> List.fold_left f acc sends

let fold_writes f acc = function
  | Compute c -> f acc c.dst
  | Load v -> f acc v
  | Store _ -> acc
  | Collective { recvs; _ } -> List.fold_left f acc recvs

type chip_program = { chip : int; instrs : instr list }

type t = {
  chips : chip_program array;
  n_vregs : int;
  limb_bytes : int;
}

(* --- builder ------------------------------------------------------------ *)

type builder = {
  mutable per_chip : instr list array; (* reversed *)
  mutable next_vreg : int;
  mutable next_coll : int;
  n_chips : int;
  b_limb_bytes : int;
}

let builder ~chips ~limb_bytes =
  { per_chip = Array.make chips []; next_vreg = 0; next_coll = 0; n_chips = chips; b_limb_bytes = limb_bytes }

let fresh_vreg b =
  let v = b.next_vreg in
  b.next_vreg <- v + 1;
  v

let push b chip i = b.per_chip.(chip) <- i :: b.per_chip.(chip)

let compute b ~chip ~fu ?(macs = 1) srcs =
  let dst = fresh_vreg b in
  push b chip (Compute { fu; dst; srcs; macs });
  dst

let load b ~chip =
  let v = fresh_vreg b in
  push b chip (Load v);
  v

let store b ~chip v = push b chip (Store v)

(* Emit a collective on every chip of [group].  [sends c] is chip c's
   contributed vregs; [recv_count c] limbs are materialized on chip c
   as fresh vregs.  Returns the per-chip received vregs (indexed by
   position in [group]). *)
let collective b ~kind ~group ~limbs ~sends ~recv_count =
  match group with
  | [ only ] ->
    (* single-chip groups have no interconnect: nothing to emit, and
       any "received" limbs are the chip's own sends *)
    [ (only, sends only) ]
  | _ ->
    let id = b.next_coll in
    b.next_coll <- id + 1;
    List.map
      (fun c ->
        let recvs = List.init (recv_count c) (fun _ -> fresh_vreg b) in
        push b c (Collective { kind; group; limbs; id; sends = sends c; recvs });
        (c, recvs))
      group

let finish b =
  {
    chips = Array.init b.n_chips (fun c -> { chip = c; instrs = List.rev b.per_chip.(c) });
    n_vregs = b.next_vreg;
    limb_bytes = b.b_limb_bytes;
  }

(* --- statistics ---------------------------------------------------------- *)

type comm_stats = {
  broadcasts : int;
  aggregations : int;
  bytes_moved : int; (* total over all collectives, per-chip payload *)
}

let comm_stats t =
  let seen = Hashtbl.create 64 in
  let b = ref 0 and a = ref 0 and bytes = ref 0 in
  Array.iter
    (fun cp ->
      List.iter
        (fun i ->
          match i with
          | Collective { kind; limbs; id; _ } when not (Hashtbl.mem seen id) ->
            Hashtbl.add seen id ();
            (match kind with Broadcast -> incr b | Aggregate_scatter -> incr a);
            bytes := !bytes + (limbs * t.limb_bytes)
          | _ -> ())
        cp.instrs)
    t.chips;
  { broadcasts = !b; aggregations = !a; bytes_moved = !bytes }

type compute_stats = {
  per_fu : (fu * int) list; (* instruction counts *)
  loads : int;
  stores : int;
  total_instrs : int;
}

let compute_stats_chip cp =
  let tbl = Hashtbl.create 8 in
  let loads = ref 0 and stores = ref 0 and total = ref 0 in
  List.iter
    (fun i ->
      incr total;
      match i with
      | Compute c ->
        let k = try Hashtbl.find tbl c.fu with Not_found -> 0 in
        Hashtbl.replace tbl c.fu (k + c.macs)
      | Load _ -> incr loads
      | Store _ -> incr stores
      | Collective _ -> ())
    cp.instrs;
  {
    per_fu = Hashtbl.fold (fun fu n acc -> (fu, n) :: acc) tbl [];
    loads = !loads;
    stores = !stores;
    total_instrs = !total;
  }
