(* The Cinnamon DSL (paper §4.2).

   An embedded DSL for writing FHE programs with explicit concurrent
   execution streams.  FHE operations — add, multiply, rotate,
   bootstrap — are language constructs on an abstract ciphertext type;
   [stream_pool] mirrors the paper's CinnamonStreamPool: the programmer
   provides per-stream code indexed by a stream id, and the compiler
   later places streams on chip groups.

   The DSL builds the ciphertext-level IR; plaintext operands are
   symbolic names (weights, diagonals), which is all the architectural
   pipeline needs — functional execution uses the CKKS library
   directly. *)

open Cinnamon_ir

type t = { b : Ct_ir.builder }
type ct = { prog : t; id : Ct_ir.ct_id }

let program ?(top_level = 51) ?(boot_level = 13) f =
  let p = { b = Ct_ir.builder ~top_level ~boot_level () } in
  f p;
  Ct_ir.finish p.b

let emit p op = { prog = p; id = Ct_ir.emit p.b op }

(* Ids are per builder: a value of another program would be wired to
   whatever this builder holds under the same id. *)
let emit2 a b op =
  if b.prog != a.prog then
    Cinnamon_util.Error.fail Cinnamon_util.Error.Invalid_input "Dsl: operands of different programs";
  emit a.prog op

let input p name = emit p (Ct_ir.Input name)
let add a b = emit2 a b (Ct_ir.Add (a.id, b.id))
let sub a b = emit2 a b (Ct_ir.Sub (a.id, b.id))
let mul a b = emit2 a b (Ct_ir.Mul (a.id, b.id))
let square a = emit a.prog (Ct_ir.Square a.id)
let mul_plain a name = emit a.prog (Ct_ir.MulPlain (a.id, name))
let add_plain a name = emit a.prog (Ct_ir.AddPlain (a.id, name))
let mul_const a c = emit a.prog (Ct_ir.MulConst (a.id, c))
let add_const a c = emit a.prog (Ct_ir.AddConst (a.id, c))
let mul_plain_raw a name = emit a.prog (Ct_ir.MulPlainRaw (a.id, name))
let rescale a = emit a.prog (Ct_ir.Rescale a.id)
let rotate a r = if r = 0 then a else emit a.prog (Ct_ir.Rotate (a.id, r))
let conjugate a = emit a.prog (Ct_ir.Conjugate a.id)
let bootstrap a = emit a.prog (Ct_ir.Bootstrap a.id)
let output a name = ignore (emit a.prog (Ct_ir.Output (a.id, name)))

(* Remaining multiplicative budget of a value (builder-side). *)
let budget a = Ct_ir.node_level a.prog.b a.id

(* The paper's CinnamonStreamPool: run [body stream_id] for each of
   [n] concurrent streams.  Ops emitted inside are annotated with the
   stream, and the compiler places streams on chip groups. *)
let stream_pool p ~streams body =
  (* stream 0 is the whole-machine default; concurrent sections use
     streams 1..n (the caller still sees 0-based ids) *)
  for s = 0 to streams - 1 do
    Ct_ir.set_stream p.b (s + 1);
    body s
  done;
  Ct_ir.set_stream p.b 0

(* Run [f ()] with ops annotated as stream [s], then restore stream 0. *)
let in_stream p s f =
  Ct_ir.set_stream p.b s;
  let r = f () in
  Ct_ir.set_stream p.b 0;
  r

(* --- library routines written in the DSL -------------------------------- *)

(* Rotate-and-sum reduction over [n] slots (log2 n rotations). *)
let sum_slots a ~n =
  let rec go acc step = if step >= n then acc else go (add acc (rotate acc step)) (2 * step) in
  go a 1

(* BSGS diagonal matrix-vector product with [diagonals] non-empty
   generalized diagonals named [name_d].  This is the kernel whose
   patterns the keyswitch pass optimizes: the baby rotations are
   "multiple rotations of one ciphertext" (input-broadcast batch), the
   giant steps are "rotations followed by aggregation"
   (output-aggregation batch). *)
let bsgs_matvec ?g v ~diagonals ~name =
  let g =
    match g with
    | Some g ->
      if g < 1 || g > diagonals then invalid_arg "Dsl.bsgs_matvec: g out of range";
      g
    | None -> max 1 (int_of_float (Float.round (sqrt (Float.of_int diagonals))))
  in
  let n_giant = Cinnamon_util.Bitops.cdiv diagonals g in
  let babies = Array.init g (fun j -> rotate v j) in
  let acc = ref None in
  for i = 0 to n_giant - 1 do
    let inner = ref None in
    for j = 0 to g - 1 do
      let d = (g * i) + j in
      if d < diagonals then begin
        (* lazy rescaling: accumulate raw delta^2 products, rescale the
           group sum once *)
        let term = mul_plain_raw babies.(j) (Printf.sprintf "%s.diag%d" name d) in
        inner := Some (match !inner with None -> term | Some x -> add x term)
      end
    done;
    match !inner with
    | None -> ()
    | Some s ->
      let s = rescale s in
      let rotated = if i = 0 then s else rotate s (g * i) in
      acc := Some (match !acc with None -> rotated | Some x -> add x rotated)
  done;
  Option.get !acc

(* Chebyshev/Paterson-Stockmeyer polynomial evaluation of degree [deg]
   (the structural shape of EvalMod, GELU, sigmoid...): baby powers,
   repeated-squaring giants, and group combination. *)
let poly_eval v ~deg ~name =
  let g = max 2 (1 lsl ((Cinnamon_util.Bitops.ceil_log2 (deg + 1) + 1) / 2)) in
  let babies = Array.make g v in
  for k = 2 to g - 1 do
    let h = k / 2 in
    babies.(k) <- mul babies.(h) babies.(k - h)
  done;
  let n_groups = Cinnamon_util.Bitops.cdiv (deg + 1) g in
  let n_giant = Cinnamon_util.Bitops.ceil_log2 (max 1 n_groups) in
  let giants = Array.make (max 1 n_giant) v in
  if n_giant > 0 then begin
    giants.(0) <- square babies.(g / 2);
    for i = 1 to n_giant - 1 do
      giants.(i) <- square giants.(i - 1)
    done
  end;
  let eval_group i =
    let acc = ref (mul_plain_raw v (Printf.sprintf "%s.c%d" name (i * g))) in
    for j = 2 to min (g - 1) (deg - (i * g)) do
      acc := add !acc (mul_plain_raw babies.(j) (Printf.sprintf "%s.c%d" name ((i * g) + j)))
    done;
    add_const (rescale !acc) 0.5
  in
  let rec combine lo count depth =
    if count = 1 then eval_group lo
    else begin
      let half = count / 2 in
      let low = combine lo half (depth - 1) in
      if (lo + half) * g > deg then low
      else begin
        let high = combine (lo + half) (count - half) (depth - 1) in
        add low (mul high giants.(depth - 1))
      end
    end
  in
  combine 0 (1 lsl n_giant) n_giant

(* Newton-Raphson reciprocal (division, paper §6.2 BERT): the initial
   MulConst, then mul, MulConst and mul per iteration. *)
let nr_inverse v ~iters =
  let x = ref (add_const (mul_const v 0.0) 1.0) in
  for _ = 1 to iters do
    let vx = mul v !x in
    let two_minus = add_const (mul_const vx (-1.0)) 2.0 in
    x := mul !x two_minus
  done;
  !x

(* Newton-Raphson inverse square root: the initial MulConst, then
   square, mul, MulConst and mul per iteration. *)
let nr_inv_sqrt v ~iters =
  let x = ref (add_const (mul_const v 0.0) 1.0) in
  for _ = 1 to iters do
    let x2 = square !x in
    let vx2 = mul v x2 in
    let half_term = add_const (mul_const vx2 (-0.5)) 1.5 in
    x := mul !x half_term
  done;
  !x
