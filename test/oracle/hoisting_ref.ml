(* Hoisted rotations on whole polynomials — the reference for
   Cinnamon_ckks.Eval.rotate_many's fused path: extend each digit via
   Keyswitch.extend_digit, permute with Rns_poly.automorphism, multiply
   and add canonically, mod-down with Mod_updown.mod_down.  The fused
   path must match these bitwise. *)

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

let rotate_hoisted_ref params (pre : precomputed_ref) swk ct ~rot =
  let open Ciphertext in
  if rot = 0 then ct
  else begin
    let n = Ciphertext.n ct in
    let k = Keys.galois_of_rotation ~n rot in
    let q_l = basis ct in
    if pre.h_extended = [] then invalid_arg "Hoisting_ref.rotate_hoisted_ref: empty precomputation";
    (* The extended digits are in Eval domain, so the automorphism here
       is the precomputed slot permutation — no NTTs per digit — and
       the inner product accumulates into preallocated buffers. *)
    let acc0 = Rns_poly.create ~n ~basis:pre.h_basis ~domain:Rns_poly.Eval in
    let acc1 = Rns_poly.create ~n ~basis:pre.h_basis ~domain:Rns_poly.Eval in
    let tmp = Rns_poly.create ~n ~basis:pre.h_basis ~domain:Rns_poly.Eval in
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
      pre.h_digit_index pre.h_extended;
    let k0 = Mod_updown.mod_down acc0 ~target:q_l ~ext:params.Params.p_basis in
    let k1 = Mod_updown.mod_down acc1 ~target:q_l ~ext:params.Params.p_basis in
    let c0r = Rns_poly.automorphism ct.c0 ~k in
    make ~c0:(Rns_poly.add c0r k0) ~c1:k1 ~scale:ct.scale ~slots:ct.slots
  end
