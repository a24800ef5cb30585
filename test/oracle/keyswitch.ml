(* Sequential (single-chip) keyswitching on whole polynomials — the
   reference semantics for Figure 4 of the paper, and the oracle the
   fused engine (Cinnamon_ckks.Keyswitch_fused) must match bitwise.

   keyswitch(c, swk) for c over Q_l returns (k0, k1) over Q_l with
   k0 + k1*s ≈ c * s_from (the key encrypted in swk), enabling
   relinearization (s_from = s^2) and rotation (s_from = s^tau).

   Steps, exactly as the paper describes:
     1. split c's limbs into digits (level-aware truncation of the
        full-chain digit boundaries),
     2. mod-up every digit to Q_l ∪ P,
     3. inner product with the switch key pairs,
     4. mod-down both accumulators by P. *)

open Cinnamon_rns
open Cinnamon_ckks

(* Assemble the extension of digit [d] (over sub-basis D) to the full
   basis [target]: limbs present in D are copied; the rest come from
   one fast base conversion.  Returns Eval domain. *)
let extend_digit digit ~target =
  let d_basis = Rns_poly.basis digit in
  let dc = Rns_poly.to_coeff digit in
  let complement_idx =
    List.filteri (fun _ q -> not (Basis.mem d_basis q)) (Basis.to_list target)
    |> List.map (fun q -> Basis.index target q)
  in
  let complement = Basis.sub target complement_idx in
  let converted = Base_conv.convert dc ~dst:complement in
  (* Reassemble in target order: flat limb-view blits, no boxing. *)
  let n = Rns_poly.n digit in
  let out = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Coeff in
  for j = 0 to Basis.size target - 1 do
    let q = Basis.value target j in
    let src =
      if Basis.mem d_basis q then Rns_poly.unsafe_limb_view dc (Basis.index d_basis q)
      else Rns_poly.unsafe_limb_view converted (Basis.index complement q)
    in
    Limb_buf.blit ~src ~dst:(Rns_poly.unsafe_limb_view out j)
  done;
  Rns_poly.to_eval out

(* Level-aware digit split: restrict the full-chain digit ranges to the
   first (level+1) limbs of c's basis. *)
let split_digits params c =
  let basis = Rns_poly.basis c in
  let limbs = Basis.size basis in
  Params.digit_ranges params
  |> List.filter_map (fun (lo, hi) ->
         let hi = min hi limbs in
         if hi <= lo then None
         else Some (lo, Rns_poly.restrict c (Basis.prefix_range basis lo hi)))

(* The keyswitch routine of paper Fig. 4. [c] must be over a prefix of
   Q (any level), Eval domain. Result: (k0, k1) over the same basis. *)
let keyswitch params (swk : Keys.switch_key) c =
  let q_l = Rns_poly.basis c in
  let target = Basis.union q_l params.Params.p_basis in
  let digits = split_digits params c in
  if digits = [] then invalid_arg "Keyswitch.keyswitch: empty ciphertext";
  let n = Rns_poly.n c in
  (* Preallocated accumulators and one product temporary: the digit
     loop performs no polynomial allocations beyond extend_digit. *)
  let acc0 = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Eval in
  let acc1 = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Eval in
  let tmp = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Eval in
  List.iter
    (fun (digit_index, digit) ->
      let d_i = digit_index / params.Params.alpha in
      let extended = extend_digit digit ~target in
      let b = Rns_poly.restrict swk.Keys.swk_b.(d_i) target in
      let a = Rns_poly.restrict swk.Keys.swk_a.(d_i) target in
      Rns_poly.mul_into ~dst:tmp extended b;
      Rns_poly.add_into ~dst:acc0 acc0 tmp;
      Rns_poly.mul_into ~dst:tmp extended a;
      Rns_poly.add_into ~dst:acc1 acc1 tmp)
    digits;
  let k0 = Mod_updown.mod_down acc0 ~target:q_l ~ext:params.Params.p_basis in
  let k1 = Mod_updown.mod_down acc1 ~target:q_l ~ext:params.Params.p_basis in
  (k0, k1)
