(* CKKS bootstrapping (Cheon et al. '18 / Han–Ki '19 structure).

   Pipeline for a sparsely packed ciphertext (n' slots, gap g = N/2n'):

     1. ModRaise   — reinterpret the level-0 residues over the full
                     chain; the plaintext becomes m + q0*I with |I| <= K
                     (K bounded by the sparse secret's Hamming weight).
     2. SubSum     — log2(g) rotate-and-adds project the polynomial
                     onto the X^g subring (times g, folded into C2S).
     3. CoeffToSlot — two homomorphic n'xn' matrix products (on ct and
                     conj ct) put the subring coefficients into slots:
                     ct_a holds the real-part coefficients, ct_b the
                     imaginary-part ones.
     4. EvalMod    — approximate t mod q0 by (q0/2pi) sin(2pi t / q0),
                     Chebyshev-evaluated; division by q0 is a free
                     scale reinterpretation.
     5. SlotToCoeff — recombine a' + i b' (monomial multiply) and apply
                     the inverse matrix E to return slots to
                     coefficients.

   The multiplicative-budget bookkeeping of the paper (§2) falls out:
   the input is at level 0, ModRaise takes it to [levels], steps 3-5
   consume ~12-14 levels, and the caller receives a ciphertext with
   the remaining budget refreshed. *)

module C = Cinnamon_util.Cplx

type config = {
  slots : int;
  k_range : float; (* EvalMod domain half-width K' (in units of q0) *)
  sin_degree : int; (* Chebyshev degree for the scaled sine *)
}

let default_config () = { slots = 8; k_range = 6.0; sin_degree = 48 }

(* --- linear-transform matrices ---------------------------------------- *)

(* E[j][k] = zeta_g^{5^j * k} where zeta_g = exp(i*pi*g/N) is the
   primitive 2N'-th root of the subring (N' = 2n').  Decode of the
   subring satisfies z = E a + i E b with a,b the low/high coefficient
   halves. *)
let embedding_matrix ~slots =
  let n' = slots in
  let two_n' = 4 * n' in
  let rot = Array.make n' 1 in
  for j = 1 to n' - 1 do
    rot.(j) <- rot.(j - 1) * 5 mod two_n'
  done;
  Array.init n' (fun j ->
      Array.init n' (fun k ->
          C.polar (2.0 *. Float.pi *. Float.of_int (rot.(j) * k mod two_n') /. Float.of_int two_n')))

let conj_transpose m =
  let n = Array.length m in
  Array.init n (fun i -> Array.init n (fun j -> C.conj m.(j).(i)))

let transpose m =
  let n = Array.length m in
  Array.init n (fun i -> Array.init n (fun j -> m.(j).(i)))

let scale_matrix s m = Array.map (Array.map (C.mul s)) m

(* Matrices used by CoeffToSlot (inverse embedding, with the 1/(2n'g)
   normalization for SubSum folded in) and SlotToCoeff (E itself). *)
type matrices = { m_fwd : C.t array array; m1 : C.t array array; m2 : C.t array array }

let matrices ~n ~slots =
  let e = embedding_matrix ~slots in
  let g = n / 2 / slots in
  let norm = 1.0 /. (2.0 *. Float.of_int slots *. Float.of_int g) in
  {
    m_fwd = e;
    m1 = scale_matrix (C.make norm 0.0) (conj_transpose e);
    m2 = scale_matrix (C.make norm 0.0) (transpose e);
  }

(* --- rotation planning -------------------------------------------------- *)

(* Every rotation amount bootstrapping needs, for eval-key generation. *)
let required_rotations params ~slots =
  let n = params.Params.n in
  let g = n / 2 / slots in
  let subsum = List.init (Cinnamon_util.Bitops.log2_exact g) (fun t -> slots * (1 lsl t)) in
  let _, bsgs = Linear_algebra.bsgs_rotations ~n:slots in
  List.sort_uniq compare (subsum @ bsgs)

(* --- pipeline stages ---------------------------------------------------- *)

(* Step 1: ModRaise. Drop to level 0, recenter the q0 residues, and
   re-embed them over the full chain. *)
let mod_raise params ct =
  let open Cinnamon_rns in
  let ct0 = Ciphertext.drop_to_level ct 0 in
  let q0 = Basis.value params.Params.q_basis 0 in
  let full = Params.basis_at_level params (Params.top_level params) in
  let raise_poly p =
    let pc = Rns_poly.to_coeff p in
    let limb0 = Limb_buf.to_int_array (Rns_poly.unsafe_limb_view pc 0) in
    let centered = Array.map (fun r -> if r > q0 / 2 then r - q0 else r) limb0 in
    Rns_poly.to_eval (Rns_poly.of_coeffs ~basis:full ~domain:Rns_poly.Coeff centered)
  in
  Ciphertext.make ~c0:(raise_poly ct0.Ciphertext.c0) ~c1:(raise_poly ct0.Ciphertext.c1)
    ~scale:(Ciphertext.scale ct0) ~slots:(Ciphertext.slots ct0)

(* Step 2: SubSum. *)
let sub_sum ctx cfg ct =
  let n = Ciphertext.n ct in
  let g = n / 2 / cfg.slots in
  let rec go acc amount =
    if amount >= cfg.slots * g then acc
    else go (Eval.add acc (Eval.rotate ctx acc amount)) (amount * 2)
  in
  go ct cfg.slots

(* Step 3: CoeffToSlot. Returns (ct_a, ct_b) holding the real and
   imaginary coefficient halves. *)
let coeff_to_slot ctx cfg ct =
  let mats = matrices ~n:(Ciphertext.n ct) ~slots:cfg.slots in
  let u = Linear_algebra.matvec_bsgs ctx mats.m1 ct in
  let v = Linear_algebra.matvec_bsgs ctx mats.m2 (Eval.conjugate ctx ct) in
  let ct_a = Eval.add u v in
  let ct_b = Eval.mul_by_i (Eval.sub v u) in
  (ct_a, ct_b)

(* Step 4: EvalMod on one component.  Input slots hold t = m + q0*I
   with |t/q0| <= K'; output slots hold ~ m/delta (the decoded value),
   i.e. the constant q0/(2 pi delta) is folded in so the final
   SlotToCoeff directly reproduces the message. *)
let eval_mod ctx cfg params ct =
  let q0 = Float.of_int (Cinnamon_rns.Basis.value params.Params.q_basis 0) in
  let delta = params.Params.scale in
  let k' = cfg.k_range in
  (* C2S left slot values at t/delta (coefficients over the scale);
     one constant multiplication lands the sine argument
     x = t/(q0*K') in [-1,1] with the working scale back near delta. *)
  let t1 = Eval.mul_const ctx ct (delta /. (q0 *. k')) in
  let coeffs =
    Approx.chebyshev_fit ~a:(-1.0) ~b:1.0 ~deg:cfg.sin_degree (fun x ->
        sin (2.0 *. Float.pi *. k' *. x))
  in
  let s = Approx.chebyshev_eval ctx t1 coeffs in
  (* sin(2 pi t/q0) ~ 2 pi m / q0; rescale values to m/delta so that
     SlotToCoeff reproduces the message at the ciphertext scale. *)
  Eval.mul_const ctx s (q0 /. (2.0 *. Float.pi *. delta))

(* Step 5: SlotToCoeff. *)
let slot_to_coeff ctx cfg (ct_a, ct_b) =
  let mats = matrices ~n:(Ciphertext.n ct_a) ~slots:cfg.slots in
  let w = Eval.add ct_a (Eval.mul_by_i ct_b) in
  Linear_algebra.matvec_bsgs ctx mats.m_fwd w

(* --- the full pipeline -------------------------------------------------- *)

let bootstrap ctx cfg params ct =
  if Ciphertext.slots ct <> cfg.slots then invalid_arg "Bootstrap.bootstrap: slot mismatch";
  let raised = mod_raise params ct in
  let summed = sub_sum ctx cfg raised in
  let ct_a, ct_b = coeff_to_slot ctx cfg summed in
  let ct_a' = eval_mod ctx cfg params ct_a in
  let ct_b' = eval_mod ctx cfg params ct_b in
  let out = slot_to_coeff ctx cfg (ct_a', ct_b') in
  (* The slots now hold the message itself; the encode scale of the
     S2C matmul is the ciphertext's working scale. *)
  out
