(** Polynomial-level IR (paper Fig. 7, steps 2–3): ciphertext ops
    expanded to polynomial ops, with keyswitching kept as macro-ops
    that the keyswitch pass annotates with an algorithm and batch. *)

type poly_id = int

type ks_algorithm =
  | Seq  (** sequential, single chip *)
  | Cifher_broadcast  (** broadcasts at mod-up AND mod-down *)
  | Input_broadcast  (** Cinnamon: single broadcast at mod-up *)
  | Output_aggregation  (** Cinnamon: aggregations at mod-down only *)

type ks_kind = Ks_relin | Ks_rotation of int | Ks_conjugate

type ks_site = {
  input : poly_id;
  kind : ks_kind;
  component : int;  (** 0 or 1 of the result pair *)
  mutable algorithm : ks_algorithm;
  mutable batch : int option;  (** batch group set by the pass *)
}

type op =
  | PInput of string * int
  | PAdd of poly_id * poly_id
  | PSub of poly_id * poly_id
  | PMul of poly_id * poly_id
  | PMulPlain of poly_id * string
  | PAddPlain of poly_id * string
  | PMulConst of poly_id * float
  | PAddConst of poly_id * float
  | PAutomorph of poly_id * int
  | PRescale of poly_id
  | PKeyswitch of ks_site
  | PBootPlaceholder of poly_id
  | POutput of poly_id * string

type node = { id : poly_id; op : op; stream : int; limbs : int; ct : Ct_ir.ct_id }
type t = { nodes : node array; num_streams : int; source : Ct_ir.t }

val node : t -> poly_id -> node
val size : t -> int
val operands : op -> poly_id list

(** Keyswitch sites in program order. *)
val keyswitch_sites : t -> (node * ks_site) list

type stats = {
  total_nodes : int;
  keyswitches : int;
  automorphisms : int;
  ntt_heavy_ops : int;
}

val stats : t -> stats
val algorithm_name : ks_algorithm -> string
