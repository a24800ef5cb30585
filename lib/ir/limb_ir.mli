(** Limb-level IR (paper Fig. 7, steps 4–7): every value is one limb
    placed on a chip; communication is explicit collectives. *)

type vreg = int

type fu = Fu_add | Fu_mul | Fu_ntt | Fu_intt | Fu_auto | Fu_bconv | Fu_transpose | Fu_prng

type compute = {
  fu : fu;
  dst : vreg;
  srcs : vreg list;
  macs : int;  (** MAC passes for base conversion; 1 otherwise *)
}

type collective_kind = Broadcast | Aggregate_scatter

type instr =
  | Compute of compute
  | Load of vreg  (** HBM → register file *)
  | Store of vreg
  | Collective of {
      kind : collective_kind;
      group : int list;
      limbs : int;  (** total limbs moved *)
      id : int;  (** matches across participating chips *)
      sends : vreg list;  (** this chip's contribution *)
      recvs : vreg list;  (** limbs materialized on this chip *)
    }

(** The one definition of an instruction's operands, without building
    anything: fold [f] over the values it reads, in operand order (a
    collective reads its sends). *)
val fold_reads : ('a -> vreg -> 'a) -> 'a -> instr -> 'a

(** Fold [f] over the values an instruction defines, in operand order
    (a collective writes its recvs).  Its operands are its reads, then
    its writes. *)
val fold_writes : ('a -> vreg -> 'a) -> 'a -> instr -> 'a

type chip_program = { chip : int; instrs : instr list }
type t = { chips : chip_program array; n_vregs : int; limb_bytes : int }

type builder

val builder : chips:int -> limb_bytes:int -> builder
val fresh_vreg : builder -> vreg
val push : builder -> int -> instr -> unit

(** Emit a compute op on a chip; returns the destination vreg. *)
val compute : builder -> chip:int -> fu:fu -> ?macs:int -> vreg list -> vreg

val load : builder -> chip:int -> vreg
val store : builder -> chip:int -> vreg -> unit

(** Emit a collective on every chip of [group]; returns per-chip
    received vregs. A single-chip group emits nothing and returns the
    chip's own sends. *)
val collective :
  builder ->
  kind:collective_kind ->
  group:int list ->
  limbs:int ->
  sends:(int -> vreg list) ->
  recv_count:(int -> int) ->
  (int * vreg list) list

val finish : builder -> t

type comm_stats = { broadcasts : int; aggregations : int; bytes_moved : int }

val comm_stats : t -> comm_stats

type compute_stats = {
  per_fu : (fu * int) list;
  loads : int;
  stores : int;
  total_instrs : int;
}

val compute_stats_chip : chip_program -> compute_stats
