(* CKKS key material.

   Secret key: ternary polynomial s, either dense (P(±1)=1/4 each) or
   sparse with a fixed Hamming weight h (bootstrapping needs sparse
   secrets to bound the ModRaise overflow count).

   Keyswitching keys follow the hybrid (digit-decomposed) construction:
   for each digit D_i of the modulus chain, the key holds a pair
   (b_i, a_i) over Q_L ∪ P with

     b_i = -a_i * s_to + e_i + P * g_i * s_from

   where g_i = (Q/D_i) * [(Q/D_i)^{-1}]_{D_i} is the CRT gadget factor
   (the paper's per-digit scalar f in §2) and P is the product of the
   special primes.  Keyswitching a polynomial c then computes
   sum_i modUp([c]_{D_i}) * (b_i, a_i), mod-downs by P, and yields a
   pair decrypting to approximately c * s_from under s_to. *)

open Cinnamon_rns
module B = Cinnamon_util.Bigint

type secret_key = {
  sk_coeffs : int array; (* ternary coefficients, for noise analysis/tests *)
  sk_qp : Rns_poly.t; (* s over Q_L ∪ P, Eval domain *)
}

type public_key = { pk_b : Rns_poly.t; pk_a : Rns_poly.t (* over Q_L, Eval *) }

type switch_key = {
  swk_b : Rns_poly.t array; (* per digit, over Q_L ∪ P, Eval *)
  swk_a : Rns_poly.t array;
}

type eval_key = {
  relin : switch_key; (* s^2 -> s *)
  (* Slot amount -> key.  A Memo (mutex-guarded) rather than a bare
     Hashtbl: on-demand key generation (ensure_rotation_key) runs from
     concurrent domains under the lib/exec pool, and an unsynchronized
     Hashtbl.add there is a data race. *)
  rotations : (int, switch_key) Cinnamon_util.Memo.t;
  conjugation : switch_key option;
}

(* Sample a small error polynomial over [basis]. *)
let sample_error params ~basis rng =
  let coeffs =
    Array.init params.Params.n (fun _ ->
        int_of_float (Float.round (Cinnamon_util.Rng.gaussian rng ~sigma:params.Params.sigma)))
  in
  Rns_poly.to_eval (Rns_poly.of_coeffs ~basis ~domain:Rns_poly.Coeff coeffs)

let sample_ternary params rng =
  let n = params.Params.n in
  let h = params.Params.hamming_weight in
  if h = 0 then Array.init n (fun _ -> Cinnamon_util.Rng.ternary rng)
  else begin
    let coeffs = Array.make n 0 in
    let placed = ref 0 in
    while !placed < h do
      let pos = Cinnamon_util.Rng.int rng n in
      if coeffs.(pos) = 0 then begin
        coeffs.(pos) <- (if Cinnamon_util.Rng.bits rng 1 = 0 then 1 else -1);
        incr placed
      end
    done;
    coeffs
  end

let gen_secret_key params rng =
  let coeffs = sample_ternary params rng in
  let qp = Params.qp_basis params in
  {
    sk_coeffs = coeffs;
    sk_qp = Rns_poly.to_eval (Rns_poly.of_coeffs ~basis:qp ~domain:Rns_poly.Coeff coeffs);
  }

(* Restrict the secret key to an arbitrary sub-basis of Q_L ∪ P. *)
let sk_over sk basis = Rns_poly.restrict sk.sk_qp basis

let gen_public_key params sk rng =
  let basis = params.Params.q_basis in
  let a = Rns_poly.random ~n:params.Params.n ~basis ~domain:Rns_poly.Eval rng in
  let e = sample_error params ~basis rng in
  let s = sk_over sk basis in
  { pk_b = Rns_poly.add (Rns_poly.neg (Rns_poly.mul a s)) e; pk_a = a }

(* Gadget factor of digit i, multiplied by P, as a per-limb scalar
   vector over Q_L ∪ P:  limb value = (P mod q) * (g_i mod q).
   g_i mod p = 0 would lose the P* part... careful: the key term is
   P * g_i * s_from taken mod every prime of Q_L ∪ P.  For primes in P:
   P ≡ 0, so the term vanishes there — as required, since mod-down by P
   must remove it exactly. *)
(* Digits need not be contiguous: output-aggregation keyswitching uses
   the round-robin chip partition as its digit layout (digit selection
   freedom, paper §4.3.1). *)
let gadget_scalars_for params ~digit_indices =
  let q_basis = params.Params.q_basis in
  let qp = Params.qp_basis params in
  let q_prod = Basis.product q_basis in
  let p_prod = Basis.product params.Params.p_basis in
  (* D_i = product of digit primes, Q/D_i as a bignum. *)
  let digit_primes = List.map (fun i -> Basis.value q_basis i) digit_indices in
  let d_prod = List.fold_left (fun acc q -> B.mul_small acc q) B.one digit_primes in
  let q_over_d =
    List.fold_left
      (fun acc q ->
        let quot, rem = B.divmod_small acc q in
        assert (rem = 0);
        quot)
      q_prod digit_primes
  in
  (* t = (Q/D_i)^{-1} mod D_i, built incrementally by Garner's mixed-
     radix CRT over the digit primes. *)
  let t =
    let rec garner acc prod = function
      | [] -> acc
      | q :: rest ->
        let md = Modarith.modulus q in
        let target = Modarith.inv md (B.rem_small q_over_d q) in
        let acc_mod = B.rem_small acc q in
        let prod_mod = B.rem_small prod q in
        let delta = Modarith.mul md (Modarith.sub md target acc_mod) (Modarith.inv md prod_mod) in
        garner (B.add acc (B.mul_small prod delta)) (B.mul_small prod q) rest
    in
    garner B.zero B.one digit_primes
  in
  assert (B.compare t d_prod < 0);
  (* scalar over each prime of Q_L ∪ P: P * (Q/D_i) * t  mod q *)
  Array.init (Basis.size qp) (fun j ->
      let q = Basis.value qp j in
      let md = Modarith.modulus q in
      let p_mod = B.rem_small p_prod q in
      let qd_mod = B.rem_small q_over_d q in
      let t_mod = B.rem_small t q in
      Modarith.mul md p_mod (Modarith.mul md qd_mod t_mod))

(* Generate a switch key re-encrypting (multiplications by) s_from
   under s_to = the main secret key, one (b, a) pair per digit of
   [digits] (limb-index lists; default: Params.digit_ranges). [s_from]
   is given over Q_L ∪ P in Eval domain. *)
let gen_switch_key params sk ?digits ~s_from rng =
  let qp = Params.qp_basis params in
  let n = params.Params.n in
  let s_to = sk_over sk qp in
  let digits =
    match digits with
    | Some d -> d
    | None ->
      List.map (fun (lo, hi) -> List.init (hi - lo) (fun k -> lo + k)) (Params.digit_ranges params)
  in
  let make digit_indices =
    let a = Rns_poly.random ~n ~basis:qp ~domain:Rns_poly.Eval rng in
    let e = sample_error params ~basis:qp rng in
    let scal = gadget_scalars_for params ~digit_indices in
    let key_term = Rns_poly.scalar_mul_per_limb s_from (fun i -> scal.(i)) in
    let b = Rns_poly.add (Rns_poly.add (Rns_poly.neg (Rns_poly.mul a s_to)) e) key_term in
    (b, a)
  in
  let pairs = List.map make digits in
  { swk_b = Array.of_list (List.map fst pairs); swk_a = Array.of_list (List.map snd pairs) }

let gen_relin_key params sk rng =
  let qp = Params.qp_basis params in
  let s = sk_over sk qp in
  gen_switch_key params sk ~s_from:(Rns_poly.mul s s) rng

(* Rotations are defined modulo N/2 (the full slot count); keys are
   stored under this canonical representative. *)
let canonical_rotation ~n r =
  let half = n / 2 in
  ((r mod half) + half) mod half

(* Galois element for a rotation by [r] slots: 5^r mod 2N. *)
let galois_of_rotation ~n r =
  let two_n = 2 * n in
  let r = canonical_rotation ~n r in
  let rec go acc k = if k = 0 then acc else go (acc * 5 mod two_n) (k - 1) in
  go 1 r

let galois_conjugate ~n = (2 * n) - 1

let gen_rotation_key params sk ~rot rng =
  let k = galois_of_rotation ~n:params.Params.n rot in
  let s_rot = Rns_poly.automorphism sk.sk_qp ~k in
  gen_switch_key params sk ~s_from:s_rot rng

let canonicalize_rotations ~n rotations =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun r ->
         let c = canonical_rotation ~n r in
         if c = 0 then None else Some c)
       rotations)

let gen_conjugation_key params sk rng =
  let k = galois_conjugate ~n:params.Params.n in
  let s_conj = Rns_poly.automorphism sk.sk_qp ~k in
  gen_switch_key params sk ~s_from:s_conj rng

(* The smart constructor for eval-key sets: generation order is fixed
   (rotations in canonical order, then relin, then conjugation), so a
   given (params, rotations, rng seed) always yields the same keys.
   This is the ONLY way to build an [eval_key] — the record is private
   in the interface, so callers can read the fields but cannot assemble
   a set by hand (no half-provisioned key sets, no reaching into the
   rotations Memo to install keys behind the set's back). *)
let provision params ?(conjugation = false) ~rotations sk rng =
  let table = Cinnamon_util.Memo.create ~size:16 () in
  List.iter
    (fun r -> Cinnamon_util.Memo.set table r (gen_rotation_key params sk ~rot:r rng))
    (canonicalize_rotations ~n:params.Params.n rotations);
  {
    relin = gen_relin_key params sk rng;
    rotations = table;
    conjugation = (if conjugation then Some (gen_conjugation_key params sk rng) else None);
  }

let find_rotation_key ek r =
  match Cinnamon_util.Memo.find_opt ek.rotations r with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Keys.find_rotation_key: no key for rotation %d" r)

(* Get-or-generate a rotation key.  Safe under concurrent domains: the
   Memo's double-checked insert guarantees that even when two domains
   race on the same amount, exactly one generated key is published and
   both callers receive that one key. *)
let ensure_rotation_key params sk ek ~rot rng =
  let rot = canonical_rotation ~n:params.Params.n rot in
  if rot = 0 then invalid_arg "Keys.ensure_rotation_key: rotation 0 needs no key";
  Cinnamon_util.Memo.get ek.rotations rot (fun () -> gen_rotation_key params sk ~rot rng)
