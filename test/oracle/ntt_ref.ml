(* Textbook negacyclic NTT (see ntt_ref.mli): Cooley-Tukey forward and
   Gentleman-Sande inverse over bit-reversed powers of psi, with every
   operation a canonical Modarith call. *)

open Cinnamon_rns
module Bitops = Cinnamon_util.Bitops

(* Powers of psi and psi^-1 in bit-reversed order. *)
let tables ~q ~n =
  let md = Modarith.modulus q in
  let psi = Prime_gen.primitive_root_2n ~q ~n in
  let bits = Bitops.log2_exact n in
  let br_powers root =
    let pw = Array.make n 1 in
    for i = 1 to n - 1 do
      pw.(i) <- Modarith.mul md pw.(i - 1) root
    done;
    Array.init n (fun i -> pw.(Bitops.bit_reverse i ~bits))
  in
  (md, br_powers psi, br_powers (Modarith.inv md psi))

let forward ~q a =
  let n = Array.length a in
  let md, psi_br, _ = tables ~q ~n in
  let a = Array.copy a in
  let t = ref n and m = ref 1 in
  while !m < n do
    t := !t / 2;
    for i = 0 to !m - 1 do
      let s = psi_br.(!m + i) in
      for j = 2 * i * !t to (2 * i * !t) + !t - 1 do
        let u = a.(j) and v = Modarith.mul md a.(j + !t) s in
        a.(j) <- Modarith.add md u v;
        a.(j + !t) <- Modarith.sub md u v
      done
    done;
    m := !m * 2
  done;
  a

let inverse ~q a =
  let n = Array.length a in
  let md, _, inv_psi_br = tables ~q ~n in
  let a = Array.copy a in
  let t = ref 1 and m = ref n in
  while !m > 1 do
    let h = !m / 2 in
    for i = 0 to h - 1 do
      let s = inv_psi_br.(h + i) in
      for j = 2 * i * !t to (2 * i * !t) + !t - 1 do
        let u = a.(j) and v = a.(j + !t) in
        a.(j) <- Modarith.add md u v;
        a.(j + !t) <- Modarith.mul md (Modarith.sub md u v) s
      done
    done;
    t := !t * 2;
    m := h
  done;
  let n_inv = Modarith.inv md n in
  Array.map (fun x -> Modarith.mul md x n_inv) a

let negacyclic_mul_naive md a b =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let p = Modarith.mul md a.(i) b.(j) in
      if k < n then r.(k) <- Modarith.add md r.(k) p
      else r.(k - n) <- Modarith.sub md r.(k - n) p
    done
  done;
  r
