(** The Cinnamon instruction set (paper §4.6): a vector ISA where every
    register holds one limb (a 28-bit × N-element vector), with
    scalar-operand variants and interconnect instructions. *)

type reg = int
type alu_op = Op_add | Op_sub | Op_mul

type instr =
  | Valu of { op : alu_op; dst : reg; a : reg; b : reg }
  | Valu_scalar of { op : alu_op; dst : reg; a : reg; scalar : int }
  | Vntt of { dst : reg; src : reg }
  | Vintt of { dst : reg; src : reg }
  | Vauto of { dst : reg; src : reg; galois : int }
  | Vbconv of { dst : reg; srcs : reg list; macs : int }
      (** base-conversion MAC of [macs] input limbs into one output *)
  | Vtranspose of { dst : reg; src : reg }
  | Vprng of { dst : reg }
  | Vload of { dst : reg; addr : int }
  | Vstore of { src : reg; addr : int }
  | Net_bcast of { group : int list; limbs : int; coll_id : int; sends : reg list; recvs : reg list }
  | Net_agg of { group : int list; limbs : int; coll_id : int; sends : reg list; recvs : reg list }

type program = { chip : int; instrs : instr array; n_regs : int }

type machine_program = {
  programs : program array;  (** one per chip *)
  limb_bytes : int;
  n : int;  (** ring dimension (vector length) *)
}

(** Functional-unit class an instruction occupies. *)
type fu_class = C_add | C_mul | C_ntt | C_auto | C_bconv | C_transpose | C_prng | C_mem | C_net

val fu_of_instr : instr -> fu_class

(** The one definition of an instruction's operands, without building
    anything: fold [f] over the registers it reads, in operand order (a
    collective reads its sends). *)
val fold_reads : ('a -> reg -> 'a) -> 'a -> instr -> 'a

(** Fold [f] over the registers an instruction writes, in operand order
    (a collective writes its recvs).  Its operands are its reads, then
    its writes. *)
val fold_writes : ('a -> reg -> 'a) -> 'a -> instr -> 'a

val mnemonic : instr -> string
val pp_instr : Format.formatter -> instr -> unit

type histogram = (string * int) list

(** Instruction counts by mnemonic, sorted. *)
val histogram : program -> histogram
