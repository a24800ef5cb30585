(* The Cinnamon instruction set (paper §4.6).

   A vector ISA operating on limbs: every register holds one limb — a
   28-bit x 64K-element vector (N configurable for the emulator's small
   functional runs).  All instructions and register file accesses use
   this uniform vector shape.  Scalar-operand variants of add/sub/mul
   avoid expanding scalars into vectors.  Network instructions expose
   the interconnect's broadcast and aggregation primitives. *)

type reg = int (* physical vector register *)

type alu_op = Op_add | Op_sub | Op_mul

type instr =
  | Valu of { op : alu_op; dst : reg; a : reg; b : reg }
  | Valu_scalar of { op : alu_op; dst : reg; a : reg; scalar : int }
  | Vntt of { dst : reg; src : reg }
  | Vintt of { dst : reg; src : reg }
  | Vauto of { dst : reg; src : reg; galois : int }
  | Vbconv of { dst : reg; srcs : reg list; macs : int }
      (* multiply-accumulate base conversion: [macs] input limbs folded
         into one output limb through the BCU *)
  | Vtranspose of { dst : reg; src : reg }
  | Vprng of { dst : reg }
  | Vload of { dst : reg; addr : int }
  | Vstore of { src : reg; addr : int }
  | Net_bcast of { group : int list; limbs : int; coll_id : int; sends : reg list; recvs : reg list }
  | Net_agg of { group : int list; limbs : int; coll_id : int; sends : reg list; recvs : reg list }

type program = {
  chip : int;
  instrs : instr array;
  n_regs : int; (* registers actually used *)
}

type machine_program = {
  programs : program array; (* one per chip *)
  limb_bytes : int;
  n : int; (* ring dimension (vector length) *)
}

(* Functional unit each instruction occupies (for the scheduler). *)
type fu_class = C_add | C_mul | C_ntt | C_auto | C_bconv | C_transpose | C_prng | C_mem | C_net

let fu_of_instr = function
  | Valu { op = Op_add; _ } | Valu { op = Op_sub; _ } -> C_add
  | Valu { op = Op_mul; _ } -> C_mul
  | Valu_scalar { op = Op_add; _ } | Valu_scalar { op = Op_sub; _ } -> C_add
  | Valu_scalar { op = Op_mul; _ } -> C_mul
  | Vntt _ | Vintt _ -> C_ntt
  | Vauto _ -> C_auto
  | Vbconv _ -> C_bconv
  | Vtranspose _ -> C_transpose
  | Vprng _ -> C_prng
  | Vload _ | Vstore _ -> C_mem
  | Net_bcast _ | Net_agg _ -> C_net

(* The one definition of an instruction's operands, in operand order:
   [fold_reads] visits the registers it reads, [fold_writes] the
   registers it writes.  A collective reads its sends and writes its
   recvs. *)
let fold_reads f acc = function
  | Valu { a; b; _ } -> f (f acc a) b
  | Valu_scalar { a = src; _ }
  | Vntt { src; _ }
  | Vintt { src; _ }
  | Vauto { src; _ }
  | Vtranspose { src; _ }
  | Vstore { src; _ } -> f acc src
  | Vbconv { srcs; _ } -> List.fold_left f acc srcs
  | Vprng _ | Vload _ -> acc
  | Net_bcast { sends; _ } | Net_agg { sends; _ } -> List.fold_left f acc sends

let fold_writes f acc = function
  | Valu { dst; _ }
  | Valu_scalar { dst; _ }
  | Vntt { dst; _ }
  | Vintt { dst; _ }
  | Vauto { dst; _ }
  | Vbconv { dst; _ }
  | Vtranspose { dst; _ }
  | Vprng { dst; _ }
  | Vload { dst; _ } -> f acc dst
  | Net_bcast { recvs; _ } | Net_agg { recvs; _ } -> List.fold_left f acc recvs
  | Vstore _ -> acc

let mnemonic = function
  | Valu { op = Op_add; _ } -> "vadd"
  | Valu { op = Op_sub; _ } -> "vsub"
  | Valu { op = Op_mul; _ } -> "vmul"
  | Valu_scalar { op = Op_add; _ } -> "vadds"
  | Valu_scalar { op = Op_sub; _ } -> "vsubs"
  | Valu_scalar { op = Op_mul; _ } -> "vmuls"
  | Vntt _ -> "vntt"
  | Vintt _ -> "vintt"
  | Vauto _ -> "vauto"
  | Vbconv _ -> "vbconv"
  | Vtranspose _ -> "vtrans"
  | Vprng _ -> "vprng"
  | Vload _ -> "vload"
  | Vstore _ -> "vstore"
  | Net_bcast _ -> "bcast"
  | Net_agg _ -> "agg"

let pp_instr fmt i =
  let open Format in
  match i with
  | Valu { dst; a; b; _ } -> fprintf fmt "%s r%d, r%d, r%d" (mnemonic i) dst a b
  | Valu_scalar { dst; a; scalar; _ } -> fprintf fmt "%s r%d, r%d, #%d" (mnemonic i) dst a scalar
  | Vntt { dst; src } | Vintt { dst; src } -> fprintf fmt "%s r%d, r%d" (mnemonic i) dst src
  | Vauto { dst; src; galois } -> fprintf fmt "vauto r%d, r%d, g=%d" dst src galois
  | Vbconv { dst; srcs; macs } -> fprintf fmt "vbconv r%d, [%d srcs], macs=%d" dst (List.length srcs) macs
  | Vtranspose { dst; src } -> fprintf fmt "vtrans r%d, r%d" dst src
  | Vprng { dst } -> fprintf fmt "vprng r%d" dst
  | Vload { dst; addr } -> fprintf fmt "vload r%d, [%d]" dst addr
  | Vstore { src; addr } -> fprintf fmt "vstore r%d, [%d]" src addr
  | Net_bcast { limbs; coll_id; _ } -> fprintf fmt "bcast %d limbs (c%d)" limbs coll_id
  | Net_agg { limbs; coll_id; _ } -> fprintf fmt "agg %d limbs (c%d)" limbs coll_id

type histogram = (string * int) list

let histogram p =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let m = mnemonic i in
      Hashtbl.replace tbl m (1 + try Hashtbl.find tbl m with Not_found -> 0))
    p.instrs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
