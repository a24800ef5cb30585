(* Polynomial-level IR (paper Fig. 7, step 2-3).

   Ciphertext ops are expanded into operations on polynomials: a
   ciphertext addition c1 + c2 becomes two polynomial additions.
   Keyswitching remains a macro-op here — the keyswitch pass annotates
   each site with the parallel algorithm and batch group before the
   limb-level lowering expands it.

   Every polynomial value carries the number of limbs it occupies,
   which is all the limb-level lowering needs (the actual moduli are
   architectural parameters). *)

type poly_id = int

type ks_algorithm =
  | Seq (* sequential, single chip *)
  | Cifher_broadcast (* CiFHER: broadcast at mod-up AND mod-down *)
  | Input_broadcast (* Cinnamon: single broadcast at mod-up *)
  | Output_aggregation (* Cinnamon: aggregations at mod-down only *)

type ks_kind = Ks_relin | Ks_rotation of int | Ks_conjugate

type ks_site = {
  input : poly_id;
  kind : ks_kind;
  component : int; (* 0 or 1 of the keyswitch result pair *)
  mutable algorithm : ks_algorithm;
  mutable batch : int option; (* batch group id set by the keyswitch pass *)
}

type op =
  | PInput of string * int (* name, component index (0/1) *)
  | PAdd of poly_id * poly_id
  | PSub of poly_id * poly_id
  | PMul of poly_id * poly_id (* pointwise, Eval domain *)
  | PMulPlain of poly_id * string
  | PAddPlain of poly_id * string
  | PMulConst of poly_id * float
  | PAddConst of poly_id * float
  | PAutomorph of poly_id * int (* Galois element *)
  | PRescale of poly_id
  | PKeyswitch of ks_site
  | PBootPlaceholder of poly_id (* stands for an inlined bootstrap kernel *)
  | POutput of poly_id * string

type node = {
  id : poly_id;
  op : op;
  stream : int;
  limbs : int; (* limb count of the produced polynomial *)
  ct : Ct_ir.ct_id; (* the ciphertext node this op was lowered from *)
}

type t = {
  nodes : node array;
  num_streams : int;
  source : Ct_ir.t;
}

let node t id = t.nodes.(id)
let size t = Array.length t.nodes

let operands op =
  match op with
  | PInput _ -> []
  | PAdd (a, b) | PSub (a, b) | PMul (a, b) -> [ a; b ]
  | PMulPlain (a, _)
  | PAddPlain (a, _)
  | PMulConst (a, _)
  | PAddConst (a, _)
  | PAutomorph (a, _)
  | PRescale a
  | PBootPlaceholder a
  | POutput (a, _) -> [ a ]
  | PKeyswitch k -> [ k.input ]

(* Keyswitch sites, in program order. *)
let keyswitch_sites t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> match n.op with PKeyswitch k -> Some (n, k) | _ -> None)

type stats = {
  total_nodes : int;
  keyswitches : int;
  automorphisms : int;
  ntt_heavy_ops : int; (* ops requiring domain conversions *)
}

let stats t =
  let ks = ref 0 and auto = ref 0 and heavy = ref 0 in
  Array.iter
    (fun n ->
      match n.op with
      | PKeyswitch _ ->
        incr ks;
        incr heavy
      | PAutomorph _ ->
        incr auto;
        incr heavy
      | PRescale _ -> incr heavy
      | _ -> ())
    t.nodes;
  { total_nodes = Array.length t.nodes; keyswitches = !ks; automorphisms = !auto; ntt_heavy_ops = !heavy }

let algorithm_name = function
  | Seq -> "sequential"
  | Cifher_broadcast -> "cifher-broadcast"
  | Input_broadcast -> "input-broadcast"
  | Output_aggregation -> "output-aggregation"
