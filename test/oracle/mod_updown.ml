(* Mod up and mod down — Figure 3 of the paper, on whole polynomials:
   the reference the fused engine's Eval-domain mod-down
   (Cinnamon_ckks.Keyswitch_fused) is checked against.

   modUp   : X over S       -> X over S ∪ T   (base-convert the new limbs)
   modDown : X over S ∪ E   -> round(X / E) over S

   modDown implements the rescale-by-the-extension-product used at the
   end of keyswitching: subtract the base conversion of the E part,
   then multiply by (prod E)^-1 mod each q in S. *)

open Cinnamon_rns

(* [mod_up x ~ext] : x over basis S (Coeff domain), returns x over
   S ∪ ext.  The S limbs are carried over verbatim; the ext limbs come
   from fast base conversion (so the value is x + e·S_prod, absorbed
   downstream). *)
let mod_up x ~ext =
  let xc = Rns_poly.to_coeff x in
  let converted = Base_conv.convert xc ~dst:ext in
  Rns_poly.concat xc converted

(* (prod ext)^-1 mod each target prime: a bignum product plus a Fermat
   inversion per limb. *)
let p_inv_scalars ~target ~ext =
  let p_prod = Basis.product ext in
  Array.init (Basis.size target) (fun i ->
      Modarith.inv (Basis.modulus target i)
        (Cinnamon_util.Bigint.rem_small p_prod (Basis.value target i)))

(* [mod_down x ~target ~ext] : x over target ∪ ext (limbs of [target]
   first), returns round(x / prod(ext)) over [target].  Accepts Eval or
   Coeff input and returns the same domain. *)
let mod_down x ~target ~ext =
  let input_domain = Rns_poly.domain x in
  let xc = Rns_poly.to_coeff x in
  let x_target = Rns_poly.restrict xc target in
  let x_ext = Rns_poly.restrict xc ext in
  (* Convert the E part down into the target basis... *)
  let e_in_target = Base_conv.convert x_ext ~dst:target in
  (* ...subtract, then scale by P^-1 per limb (fused into one pass over
     a single destination: restrict copied x_target, so it can serve as
     the accumulator). *)
  let p_inv = p_inv_scalars ~target ~ext in
  Rns_poly.sub_into ~dst:x_target x_target e_in_target;
  Rns_poly.scalar_mul_per_limb_into ~dst:x_target x_target (fun i -> p_inv.(i));
  if input_domain = Rns_poly.Eval then Rns_poly.to_eval x_target else x_target
