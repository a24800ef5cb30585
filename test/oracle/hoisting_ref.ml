(* Hoisted rotations on whole polynomials — the reference for
   Cinnamon_ckks.Eval.rotate_many's and Eval.rotate_sum's fused paths:
   extend each digit via Keyswitch.extend_digit, permute with
   Rns_poly.automorphism, multiply and add canonically, mod-down with
   Mod_updown.mod_down.  The fused paths must match these bitwise. *)

open Cinnamon_rns
open Cinnamon_ckks

type precomputed_ref = {
  h_extended : Rns_poly.t list; (* extended digits of c1, Eval domain *)
  h_digit_index : int list; (* first limb index of each digit *)
  h_basis : Basis.t; (* Q_l ∪ P *)
}

let precompute_ref params c1 =
  let q_l = Rns_poly.basis c1 in
  let target = Basis.union q_l params.Params.p_basis in
  let digits = Keyswitch.split_digits params c1 in
  {
    h_extended = List.map (fun (_, d) -> Keyswitch.extend_digit d ~target) digits;
    h_digit_index = List.map fst digits;
    h_basis = target;
  }

(* Zeroed Eval-domain accumulators over Q_l ∪ P. *)
let accumulators (pre : precomputed_ref) ~n =
  ( Rns_poly.create ~n ~basis:pre.h_basis ~domain:Rns_poly.Eval,
    Rns_poly.create ~n ~basis:pre.h_basis ~domain:Rns_poly.Eval )

(* Add the inner product of the extended digits, permuted by X -> X^k,
   with [swk] onto [acc0]/[acc1].  The extended digits are in Eval
   domain, so the automorphism here is the precomputed slot permutation
   — no NTTs per digit. *)
let accumulate_rotated params (pre : precomputed_ref) swk ~k ~acc0 ~acc1 =
  if pre.h_extended = [] then invalid_arg "Hoisting_ref: empty precomputation";
  let tmp = Rns_poly.create_like acc0 in
  List.iter2
    (fun digit_index extended ->
      let d_i = digit_index / params.Params.alpha in
      let rotated = Rns_poly.automorphism extended ~k in
      let b = Rns_poly.restrict swk.Keys.swk_b.(d_i) pre.h_basis in
      let a = Rns_poly.restrict swk.Keys.swk_a.(d_i) pre.h_basis in
      Rns_poly.mul_into ~dst:tmp rotated b;
      Rns_poly.add_into ~dst:acc0 acc0 tmp;
      Rns_poly.mul_into ~dst:tmp rotated a;
      Rns_poly.add_into ~dst:acc1 acc1 tmp)
    pre.h_digit_index pre.h_extended

let mod_down2 params ~q_l acc0 acc1 =
  ( Mod_updown.mod_down acc0 ~target:q_l ~ext:params.Params.p_basis,
    Mod_updown.mod_down acc1 ~target:q_l ~ext:params.Params.p_basis )

let rotate_hoisted_ref params (pre : precomputed_ref) swk ct ~rot =
  let open Ciphertext in
  if rot = 0 then ct
  else begin
    let n = Ciphertext.n ct in
    let k = Keys.galois_of_rotation ~n rot in
    let acc0, acc1 = accumulators pre ~n in
    accumulate_rotated params pre swk ~k ~acc0 ~acc1;
    let k0, k1 = mod_down2 params ~q_l:(basis ct) acc0 acc1 in
    let c0r = Rns_poly.automorphism ct.c0 ~k in
    make ~c0:(Rns_poly.add c0r k0) ~c1:k1 ~scale:ct.scale ~slots:ct.slots
  end

(* The batched form: the accumulators carry across every rotation and
   one mod-down per accumulator ends the batch.  c0 sums the rotated
   c0s; rotation 0 adds the ciphertext itself, keyswitch-free. *)
let rotate_sum_ref params (pre : precomputed_ref) ek ct rots =
  let open Ciphertext in
  if rots = [] then invalid_arg "Hoisting_ref.rotate_sum_ref: empty rotation list";
  let n = Ciphertext.n ct in
  let q_l = basis ct in
  let acc0, acc1 = accumulators pre ~n in
  let c0_sum = Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval in
  let c1_sum = Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval in
  List.iter
    (fun rot ->
      if rot = 0 then begin
        Rns_poly.add_into ~dst:c0_sum c0_sum ct.c0;
        Rns_poly.add_into ~dst:c1_sum c1_sum ct.c1
      end
      else begin
        let k = Keys.galois_of_rotation ~n rot in
        let swk = Keys.find_rotation_key ek (Keys.canonical_rotation ~n rot) in
        accumulate_rotated params pre swk ~k ~acc0 ~acc1;
        Rns_poly.add_into ~dst:c0_sum c0_sum (Rns_poly.automorphism ct.c0 ~k)
      end)
    rots;
  let k0, k1 = mod_down2 params ~q_l acc0 acc1 in
  make ~c0:(Rns_poly.add c0_sum k0) ~c1:(Rns_poly.add c1_sum k1) ~scale:ct.scale ~slots:ct.slots
