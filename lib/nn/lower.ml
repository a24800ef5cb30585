(* Graph -> Ct_ir lowering (see lower.mli for the invariants).

   Each node lowers to the same DSL routine the hand kernels use, so
   the keyswitch pass sees the patterns it already optimizes: diagonal
   matmul babies are input-broadcast batches (hoisted), giant steps
   output-aggregation batches.  The per-node op counts here must stay
   in lockstep with Plan.step_of_node — the test suite pins plan
   totals against Ct_ir.count_ops of the result. *)

module Dsl = Cinnamon.Dsl

let column_matvec v ~rows ~cols ~name =
  (* Naive column packing: per output row, an unhoistable masked
     rotate-and-sum inner product.  y[s] = y_{s mod rows}: row i's
     plaintext is W[i, s mod cols], the mask selects s = i mod rows. *)
  let acc = ref None in
  for i = 0 to rows - 1 do
    let t = Dsl.mul_plain v (Printf.sprintf "%s.row%d" name i) in
    let s = Dsl.sum_slots t ~n:cols in
    let m = Dsl.mul_plain s (Printf.sprintf "%s.mask%d" name i) in
    acc := Some (match !acc with None -> m | Some x -> Dsl.add x m)
  done;
  Option.get !acc

(* Power-basis polynomial c0 + c1 x + ... + cd x^d, degree <= 3.
   Unlike Dsl.poly_eval (the structural Paterson-Stockmeyer shape used
   for cycle costs), this evaluates the named coefficients exactly, so
   lowered programs decrypt-match the reference evaluator. *)
let poly v coeffs =
  let d = Array.length coeffs - 1 in
  let x2 = if d >= 2 then Some (Dsl.square v) else None in
  let x3 = if d >= 3 then Some (Dsl.mul (Option.get x2) v) else None in
  let power = function 1 -> v | 2 -> Option.get x2 | 3 -> Option.get x3 | _ -> assert false in
  let acc = ref (Dsl.mul_const v coeffs.(1)) in
  for i = 2 to d do
    acc := Dsl.add !acc (Dsl.mul_const (power i) coeffs.(i))
  done;
  Dsl.add_const !acc coeffs.(0)

let lower_softmax v ~dim ~exp_coeffs ~iters =
  let e = poly v exp_coeffs in
  let den = Dsl.sum_slots e ~n:dim in
  (* scale to the mean so the NR reciprocal starts in its basin *)
  let scaled = Dsl.mul_const den (1.0 /. Float.of_int dim) in
  let inv = Dsl.nr_inverse scaled ~iters in
  Dsl.mul e inv

let lower_layernorm v ~dim ~gamma ~eps ~iters =
  let inv_d = 1.0 /. Float.of_int dim in
  let mean = Dsl.mul_const (Dsl.sum_slots v ~n:dim) inv_d in
  let centered = Dsl.sub v mean in
  let var = Dsl.mul_const (Dsl.sum_slots (Dsl.square centered) ~n:dim) inv_d in
  let inv_std = Dsl.nr_inv_sqrt (Dsl.add_const var eps) ~iters in
  Dsl.mul_plain (Dsl.mul centered inv_std) gamma

let conv_offsets width = List.init 9 (fun t -> (t mod 3) - 1 + (width * (t / 3 - 1)))

let lower_conv v ~w ~width ~fold =
  (* 3x3 taps as rotations of one input (a hoistable batch), lazily
     rescaled like the diagonal matvec, then the channel fold. *)
  let taps =
    List.mapi
      (fun t off -> Dsl.mul_plain_raw (Dsl.rotate v off) (Printf.sprintf "%s.w%d" w t))
      (conv_offsets width)
  in
  let s = List.fold_left Dsl.add (List.hd taps) (List.tl taps) in
  let s = Dsl.rescale s in
  if fold > 1 then Dsl.sum_slots s ~n:fold else s

let sources (n : Graph.node) =
  match n.Graph.op with
  | Graph.Input _ -> []
  | Graph.Output { src; _ }
  | Graph.Reshape { src; _ }
  | Graph.Matmul { src; _ }
  | Graph.Conv2d { src; _ }
  | Graph.Act { src; _ }
  | Graph.Softmax { src; _ }
  | Graph.Layernorm { src; _ } -> [ src ]
  | Graph.Mul (a, b) | Graph.Add (a, b) -> [ a; b ]

(* Emit node [n]'s routine into [p], reading operand values through
   [get]; [None] for an output.  Both the real emission and {!measure}
   call this. *)
let emit_node plan p get (n : Graph.node) =
  match n.Graph.op with
  | Graph.Input { name } -> Some (Dsl.input p name)
  | Graph.Output { src; name } ->
    Dsl.output (get src) name;
    None
  | Graph.Reshape { src; _ } -> Some (get src)
  | Graph.Matmul { src; w; rows; cols } -> (
    match Plan.packing_of plan n.Graph.id with
    | Some (Plan.Diagonal { Cost.n1; _ }) ->
      Some (Dsl.bsgs_matvec ~g:n1 (get src) ~diagonals:cols ~name:w)
    | Some Plan.Column -> Some (column_matvec (get src) ~rows ~cols ~name:w)
    | None -> invalid_arg "Lower: plan has no packing for a matmul node")
  | Graph.Conv2d { src; w; width; fold; _ } -> Some (lower_conv (get src) ~w ~width ~fold)
  | Graph.Act { src; coeffs; _ } -> Some (poly (get src) coeffs)
  | Graph.Softmax { src; exp_coeffs; iters; _ } ->
    Some (lower_softmax (get src) ~dim:n.Graph.dim ~exp_coeffs ~iters)
  | Graph.Layernorm { src; gamma; eps; iters } ->
    Some (lower_layernorm (get src) ~dim:n.Graph.dim ~gamma ~eps ~iters)
  | Graph.Mul (a, b) -> Some (Dsl.mul (get a) (get b))
  | Graph.Add (a, b) -> Some (Dsl.add (get a) (get b))

(* The ct-ct products and the levels node [n]'s routine spends: emit it
   alone on fresh operands into a throwaway program whose budget no
   routine can exhaust. *)
let measure plan (n : Graph.node) =
  let drop = ref 0 in
  let prog =
    Dsl.program ~top_level:max_int (fun p ->
        let args = List.map (fun src -> (src, Dsl.input p "x")) (sources n) in
        Option.iter
          (fun v -> drop := max_int - Dsl.budget v)
          (emit_node plan p (fun src -> List.assoc src args) n))
  in
  ((Cinnamon_ir.Ct_ir.count_ops prog).Cinnamon_ir.Ct_ir.n_mul_ct, !drop)

let lower ?(top_level = 51) ?(boot_level = 21) ?(refresh_depth = 12) ?plan (g : Graph.t) =
  let plan = match plan with Some p -> p | None -> Plan.make g in
  Dsl.program ~top_level ~boot_level (fun p ->
      let env : (Graph.node_id, Dsl.ct) Hashtbl.t = Hashtbl.create 32 in
      let get id = Hashtbl.find env id in
      (* Automatic bootstrap placement: values carry their ct-ct
         multiplicative depth since the last refresh; before a node
         that would push an operand past [refresh_depth] (where the
         conservative noise estimate starts compounding; see
         Cinnamon_compiler.Noise) — or past the level budget — its
         operands are bootstrapped, exactly as the paper's hand
         kernels interleave bootstraps through BERT and ResNet. *)
      let depths : (Graph.node_id, int) Hashtbl.t = Hashtbl.create 32 in
      let depth id = Option.value (Hashtbl.find_opt depths id) ~default:0 in
      let refresh_operands (n : Graph.node) =
        let inc, need = measure plan n in
        let base = List.fold_left (fun a src -> max a (depth src)) 0 (sources n) in
        let too_deep = base > 0 && base + inc > refresh_depth in
        List.iter
          (fun src ->
            let v = get src in
            let low_budget = Dsl.budget v < need + 1 && Dsl.budget v < boot_level in
            if (too_deep && depth src > 0) || low_budget then begin
              Hashtbl.replace env src (Dsl.bootstrap v);
              Hashtbl.replace depths src 0
            end)
          (sources n);
        let base = List.fold_left (fun a src -> max a (depth src)) 0 (sources n) in
        Hashtbl.replace depths n.Graph.id (base + inc)
      in
      Array.iter
        (fun (n : Graph.node) ->
          refresh_operands n;
          Option.iter (Hashtbl.replace env n.Graph.id) (emit_node plan p get n))
        g.Graph.nodes)
