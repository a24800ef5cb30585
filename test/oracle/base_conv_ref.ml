(* Reference base conversions (see base_conv_ref.mli).

   Fast conversion: y_{p_k} = sum_j [x_{q_j} * (Q/q_j)^-1]_{q_j} * (Q/q_j)
   mod p_k, summed with plain Modarith calls.  The sum mod p_k is the
   same integer the kernel's lazy accumulation reduces, so the two
   agree bitwise. *)

open Cinnamon_rns
module B = Cinnamon_util.Bigint

let convert x ~dst =
  if Rns_poly.domain x <> Rns_poly.Coeff then
    invalid_arg "Base_conv_ref.convert: input must be in coefficient domain";
  let src = Rns_poly.basis x in
  let c = Crt.consts src in
  let n = Rns_poly.n x in
  let l = Basis.size src in
  let scaled =
    Array.init l (fun j ->
        let md = Basis.modulus src j in
        let limb = Limb_buf.to_int_array (Rns_poly.unsafe_limb_view x j) in
        Array.map (fun v -> Modarith.mul md v (Crt.qhat_inv c j)) limb)
  in
  let out = Rns_poly.create ~n ~basis:dst ~domain:Rns_poly.Coeff in
  for k = 0 to Basis.size dst - 1 do
    let md = Basis.modulus dst k in
    let qhat_mod_p = Array.init l (fun j -> B.rem_small (Crt.qhat c j) (Basis.value dst k)) in
    let olimb = Rns_poly.unsafe_limb_view out k in
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for j = 0 to l - 1 do
        let v = Modarith.of_int md scaled.(j).(i) in
        acc := Modarith.add md !acc (Modarith.mul md v qhat_mod_p.(j))
      done;
      Limb_buf.set olimb i !acc
    done
  done;
  out

let convert_exact x ~dst =
  let xc = Rns_poly.to_coeff x in
  let n = Rns_poly.n x in
  let out = Rns_poly.create ~n ~basis:dst ~domain:Rns_poly.Coeff in
  for i = 0 to n - 1 do
    let v, negp = Rns_poly.coeff_centered xc i in
    for k = 0 to Basis.size dst - 1 do
      let md = Basis.modulus dst k in
      let r = B.rem_small v (Basis.value dst k) in
      Limb_buf.set (Rns_poly.unsafe_limb_view out k) i (if negp then Modarith.neg md r else r)
    done
  done;
  out
