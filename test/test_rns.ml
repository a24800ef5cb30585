(* Tests for the RNS substrate: modular arithmetic, prime generation,
   NTT, RNS polynomials, base conversion, mod up/down. *)

open Cinnamon_rns
module Rng = Cinnamon_util.Rng
module B = Cinnamon_util.Bigint
module Ntt_ref = Cinnamon_oracle.Ntt_ref

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let n_test = 64
let primes = lazy (Prime_gen.gen_primes ~bits:28 ~n:n_test ~count:5 ())
let q0 = lazy (List.hd (Lazy.force primes))

(* Boxed-array wrappers around the Limb_buf NTT kernels: tests stay
   written in plain [int array] terms while exercising the real
   Bigarray fast path (differential coverage against the int-array
   oracles lives in Test_kernels). *)
let ntt_fwd plan a =
  let dst = Limb_buf.create (Array.length a) in
  Ntt.forward_into plan ~src:(Limb_buf.of_int_array a) ~dst;
  Limb_buf.to_int_array dst

let ntt_inv plan a =
  let dst = Limb_buf.create (Array.length a) in
  Ntt.inverse_into plan ~src:(Limb_buf.of_int_array a) ~dst;
  Limb_buf.to_int_array dst

(* Limb [i] of [p] as a boxed array (copy). *)
let limb_arr p i = Limb_buf.to_int_array (Rns_poly.unsafe_limb_view p i)

(* --- Modarith ------------------------------------------------------------ *)

let test_modarith_vs_native =
  qtest ~count:500 "barrett mul matches mod"
    QCheck2.Gen.(pair (int_bound ((1 lsl 28) - 1)) (int_bound ((1 lsl 28) - 1)))
    (fun (a, b) ->
      let q = Lazy.force q0 in
      let m = Modarith.modulus q in
      Modarith.mul m (a mod q) (b mod q) = a mod q * (b mod q) mod q)

let test_modarith_add_sub =
  qtest "add/sub inverse" QCheck2.Gen.(pair (int_bound ((1 lsl 28) - 1)) (int_bound ((1 lsl 28) - 1)))
    (fun (a, b) ->
      let q = Lazy.force q0 in
      let m = Modarith.modulus q in
      let a = a mod q and b = b mod q in
      Modarith.sub m (Modarith.add m a b) b = a)

let test_modarith_inv =
  qtest "x * x^-1 = 1" QCheck2.Gen.(int_range 1 ((1 lsl 28) - 1))
    (fun a ->
      let q = Lazy.force q0 in
      let m = Modarith.modulus q in
      let a = 1 + (a mod (q - 1)) in
      Modarith.mul m a (Modarith.inv m a) = 1)

let test_modarith_pow () =
  let q = Lazy.force q0 in
  let m = Modarith.modulus q in
  Alcotest.(check int) "fermat" 1 (Modarith.pow m 3 (q - 1));
  Alcotest.(check int) "pow 0" 1 (Modarith.pow m 12345 0)

let test_modarith_neg_of_int () =
  let q = Lazy.force q0 in
  let m = Modarith.modulus q in
  Alcotest.(check int) "of_int negative" (q - 5) (Modarith.of_int m (-5));
  Alcotest.(check int) "neg zero" 0 (Modarith.neg m 0);
  Alcotest.(check int) "centered" (-1) (Modarith.to_centered m (q - 1))

let test_modarith_30bit_sources () =
  (* the base-conversion fix: residues from a 30-bit modulus reduced
     into a 26-bit modulus must be exact *)
  let p30 = List.hd (Prime_gen.gen_primes ~bits:30 ~n:n_test ~count:1 ()) in
  let q26 = List.hd (Prime_gen.gen_primes ~bits:26 ~n:n_test ~count:1 ()) in
  let m = Modarith.modulus q26 in
  let v = p30 - 2 in
  Alcotest.(check int) "explicit reduction" (v mod q26 * 7 mod q26) (Modarith.mul m (v mod q26) 7)

(* --- Prime_gen ------------------------------------------------------------ *)

let test_primes_are_ntt_friendly () =
  List.iter
    (fun q ->
      Alcotest.(check bool) "prime" true (Prime_gen.is_prime q);
      Alcotest.(check int) "q = 1 mod 2N" 1 (q mod (2 * n_test)))
    (Lazy.force primes)

let test_is_prime_small () =
  List.iter (fun (v, e) -> Alcotest.(check bool) (string_of_int v) e (Prime_gen.is_prime v))
    [ (2, true); (3, true); (4, false); (17, true); (561, false); (7919, true); (1, false) ]

let test_primitive_root () =
  let q = Lazy.force q0 in
  let psi = Prime_gen.primitive_root_2n ~q ~n:n_test in
  let m = Modarith.modulus q in
  Alcotest.(check int) "psi^N = -1" (q - 1) (Modarith.pow m psi n_test);
  Alcotest.(check int) "psi^2N = 1" 1 (Modarith.pow m psi (2 * n_test))

let test_primes_near_balance () =
  let ps = Prime_gen.gen_primes_near ~bits:26 ~n:1024 ~count:12 () in
  Alcotest.(check int) "count" 12 (List.length ps);
  let ratio =
    List.fold_left (fun acc q -> acc *. (Float.of_int q /. Float.of_int (1 lsl 26))) 1.0 ps
  in
  Alcotest.(check bool) "cumulative ratio near 1" true (Float.abs (ratio -. 1.0) < 0.01);
  Alcotest.(check int) "distinct" 12 (List.length (List.sort_uniq compare ps))

(* --- Ntt ------------------------------------------------------------------- *)

let test_ntt_roundtrip () =
  let q = Lazy.force q0 in
  let rng = Rng.create ~seed:10 in
  let plan = Ntt.plan ~q ~n:n_test in
  let a = Array.init n_test (fun _ -> Rng.int rng q) in
  Alcotest.(check (array int)) "intt(ntt(a)) = a" a (ntt_inv plan (ntt_fwd plan a))

let test_ntt_convolution () =
  let q = Lazy.force q0 in
  let m = Modarith.modulus q in
  let rng = Rng.create ~seed:11 in
  let plan = Ntt.plan ~q ~n:n_test in
  let a = Array.init n_test (fun _ -> Rng.int rng q) in
  let b = Array.init n_test (fun _ -> Rng.int rng q) in
  let fa = ntt_fwd plan a and fb = ntt_fwd plan b in
  let prod = Array.init n_test (fun i -> Modarith.mul m fa.(i) fb.(i)) in
  Alcotest.(check (array int)) "negacyclic convolution" (Ntt_ref.negacyclic_mul_naive m a b)
    (ntt_inv plan prod)

let test_ntt_linear =
  qtest ~count:20 "ntt is linear" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let q = Lazy.force q0 in
      let m = Modarith.modulus q in
      let rng = Rng.create ~seed in
      let plan = Ntt.plan ~q ~n:n_test in
      let a = Array.init n_test (fun _ -> Rng.int rng q) in
      let b = Array.init n_test (fun _ -> Rng.int rng q) in
      let sum = Array.init n_test (fun i -> Modarith.add m a.(i) b.(i)) in
      let fa = ntt_fwd plan a and fb = ntt_fwd plan b in
      ntt_fwd plan sum = Array.init n_test (fun i -> Modarith.add m fa.(i) fb.(i)))

let test_ntt_x_shift () =
  (* multiplying by X rotates coefficients negacyclically *)
  let q = Lazy.force q0 in
  let m = Modarith.modulus q in
  let plan = Ntt.plan ~q ~n:n_test in
  let a = Array.init n_test (fun i -> (i * 7) mod q) in
  let x = Array.make n_test 0 in
  x.(1) <- 1;
  let prod = ntt_inv plan (Array.init n_test (fun i ->
      Modarith.mul m (ntt_fwd plan a).(i) (ntt_fwd plan x).(i))) in
  let expect = Array.make n_test 0 in
  for i = 0 to n_test - 2 do
    expect.(i + 1) <- a.(i)
  done;
  expect.(0) <- Modarith.neg m a.(n_test - 1);
  Alcotest.(check (array int)) "X shift" expect prod

(* --- Basis ------------------------------------------------------------------ *)

let test_basis_basics () =
  let b = Basis.of_primes (Lazy.force primes) in
  Alcotest.(check int) "size" 5 (Basis.size b);
  Alcotest.(check int) "prefix" 3 (Basis.size (Basis.prefix b 3));
  Alcotest.(check bool) "mem" true (Basis.mem b (Lazy.force q0));
  Alcotest.(check int) "index" 0 (Basis.index b (Lazy.force q0));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Basis.of_primes: duplicate modulus") (fun () ->
      ignore (Basis.of_primes [ 17; 17 ]))

let test_basis_digits () =
  let b = Basis.of_primes (Lazy.force primes) in
  let ds = Basis.digits b ~d:2 in
  Alcotest.(check int) "two digits" 2 (List.length ds);
  Alcotest.(check int) "total limbs" 5 (List.fold_left (fun a d -> a + Basis.size d) 0 ds)

let test_basis_modular_partition () =
  let b = Basis.of_primes (Lazy.force primes) in
  let parts = Basis.modular_partition b ~chips:2 in
  Alcotest.(check int) "chips" 2 (List.length parts);
  (* chip 0 gets indices 0,2,4; chip 1 gets 1,3 *)
  Alcotest.(check int) "chip0 limbs" 3 (Basis.size (List.nth parts 0));
  Alcotest.(check int) "chip1 limbs" 2 (Basis.size (List.nth parts 1));
  Alcotest.(check int) "chip0 first" (Basis.value b 0) (Basis.value (List.nth parts 0) 0)

let test_basis_union_disjoint () =
  let b = Basis.of_primes (Lazy.force primes) in
  let more = Prime_gen.gen_primes ~bits:29 ~n:n_test ~count:2 ~avoid:(Lazy.force primes) () in
  let u = Basis.union b (Basis.of_primes more) in
  Alcotest.(check int) "union size" 7 (Basis.size u);
  Alcotest.check_raises "overlap rejected" (Invalid_argument "Basis.union: overlapping bases")
    (fun () -> ignore (Basis.union b b))

let test_basis_product () =
  let b = Basis.of_primes [ 5; 7; 11 ] in
  Alcotest.(check (option int)) "product" (Some 385) (B.to_int_opt (Basis.product b))

(* --- Rns_poly ------------------------------------------------------------------ *)

let basis5 = lazy (Basis.of_primes (Lazy.force primes))

let test_rns_add_sub =
  qtest ~count:20 "rns add/sub roundtrip" QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let b = Lazy.force basis5 in
      let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      let y = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      Rns_poly.equal (Rns_poly.sub (Rns_poly.add x y) y) x)

let test_rns_of_coeffs_centered () =
  let b = Lazy.force basis5 in
  let x = Rns_poly.of_coeffs ~basis:b ~domain:Rns_poly.Coeff [| 5; -7; 0; 123456 |] in
  Alcotest.(check (float 1e-9)) "coeff 0" 5.0 (Rns_poly.coeff_float x 0);
  Alcotest.(check (float 1e-9)) "coeff 1 (negative)" (-7.0) (Rns_poly.coeff_float x 1);
  Alcotest.(check (float 1e-9)) "coeff 3" 123456.0 (Rns_poly.coeff_float x 3)

let test_rns_domain_roundtrip () =
  let rng = Rng.create ~seed:13 in
  let b = Lazy.force basis5 in
  let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Coeff rng in
  Alcotest.(check bool) "coeff->eval->coeff" true
    (Rns_poly.equal x (Rns_poly.to_coeff (Rns_poly.to_eval x)))

let test_rns_mul_matches_naive () =
  let rng = Rng.create ~seed:14 in
  let b = Basis.prefix (Lazy.force basis5) 2 in
  let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
  let y = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
  let z = Rns_poly.to_coeff (Rns_poly.mul x y) in
  for i = 0 to 1 do
    let m = Basis.modulus b i in
    let naive =
      Ntt_ref.negacyclic_mul_naive m
        (limb_arr (Rns_poly.to_coeff x) i)
        (limb_arr (Rns_poly.to_coeff y) i)
    in
    Alcotest.(check (array int)) (Printf.sprintf "limb %d" i) naive (limb_arr z i)
  done

let test_automorphism_composition () =
  let rng = Rng.create ~seed:15 in
  let b = Lazy.force basis5 in
  let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
  (* tau_5 o tau_5 = tau_25 *)
  let a = Rns_poly.automorphism (Rns_poly.automorphism x ~k:5) ~k:5 in
  let c = Rns_poly.automorphism x ~k:25 in
  Alcotest.(check bool) "composition" true (Rns_poly.equal a c)

let test_automorphism_identity () =
  let rng = Rng.create ~seed:16 in
  let b = Lazy.force basis5 in
  let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
  Alcotest.(check bool) "tau_1 = id" true (Rns_poly.equal x (Rns_poly.automorphism x ~k:1))

let test_monomial_mul () =
  let b = Lazy.force basis5 in
  let x = Rns_poly.of_coeffs ~basis:b ~domain:Rns_poly.Coeff (Array.init n_test (fun i -> i + 1)) in
  (* X^N = -1: shifting by N negates *)
  let y = Rns_poly.monomial_mul x ~e:n_test in
  Alcotest.(check (float 1e-9)) "X^N = -1" (-1.0) (Rns_poly.coeff_float y 0);
  (* shifting by 2N is the identity *)
  let z = Rns_poly.monomial_mul x ~e:(2 * n_test) in
  Alcotest.(check bool) "X^{2N} = 1" true (Rns_poly.equal x z)

let test_restrict_concat () =
  let rng = Rng.create ~seed:17 in
  let b = Lazy.force basis5 in
  let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Coeff rng in
  let lo = Basis.prefix b 2 in
  let hi = Basis.prefix_range b 2 5 in
  let recomposed = Rns_poly.concat (Rns_poly.restrict x lo) (Rns_poly.restrict x hi) in
  Alcotest.(check bool) "restrict+concat = id" true (Rns_poly.equal x recomposed)

(* --- Kernel-layer properties ----------------------------------------------- *)

(* NTT pointwise mul vs the schoolbook oracle across randomized ring
   sizes and modulus widths — exercises the inlined-Barrett butterflies
   at every (n, bits) shape, not just the fixtures above. *)
let test_ntt_mul_random_shapes =
  qtest ~count:30 "ntt pointwise mul = naive (random n, q)"
    QCheck2.Gen.(triple (int_range 3 7) (int_range 26 30) (int_bound 10000))
    (fun (logn, bits, seed) ->
      let n = 1 lsl logn in
      let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
      let m = Modarith.modulus q in
      let rng = Rng.create ~seed in
      let plan = Ntt.plan ~q ~n in
      let a = Array.init n (fun _ -> Rng.int rng q) in
      let b = Array.init n (fun _ -> Rng.int rng q) in
      let fa = ntt_fwd plan a and fb = ntt_fwd plan b in
      let prod = Array.init n (fun i -> Modarith.mul m fa.(i) fb.(i)) in
      ntt_inv plan prod = Ntt_ref.negacyclic_mul_naive m a b)

let limbs_equal a b =
  List.for_all
    (fun i ->
      Limb_buf.equal (Rns_poly.unsafe_limb_view a i) (Rns_poly.unsafe_limb_view b i))
    (List.init (Rns_poly.level a) Fun.id)

(* Eval-domain automorphism (slot permutation) vs the Coeff-domain
   oracle, for random odd k.  Compared limb-by-limb in the Eval domain:
   the two paths must agree BITWISE, not just up to decode. *)
let test_automorphism_eval_vs_coeff_oracle =
  qtest ~count:40 "eval automorphism = coeff oracle (bitwise)"
    QCheck2.Gen.(pair (int_bound 10000) (int_bound 10000))
    (fun (seed, kseed) ->
      let rng = Rng.create ~seed in
      let b = Lazy.force basis5 in
      let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      let k = (2 * (kseed mod n_test)) + 1 in
      let fast = Rns_poly.automorphism x ~k in
      let oracle = Rns_poly.to_eval (Rns_poly.automorphism (Rns_poly.to_coeff x) ~k) in
      limbs_equal fast oracle)

(* Composed rotations: tau_{k1} o tau_{k2} = tau_{k1*k2 mod 2N} on the
   Eval path, including Galois elements of actual slot rotations
   (k = 5^r mod 2N). *)
let test_automorphism_eval_composed =
  qtest ~count:30 "eval automorphism composes"
    QCheck2.Gen.(triple (int_bound 10000) (int_bound 1000) (int_bound 1000))
    (fun (seed, r1, r2) ->
      let rng = Rng.create ~seed in
      let b = Lazy.force basis5 in
      let two_n = 2 * n_test in
      let pow5 r =
        let rec go acc i = if i = 0 then acc else go (acc * 5 mod two_n) (i - 1) in
        go 1 (r mod n_test)
      in
      let k1 = pow5 r1 and k2 = pow5 r2 in
      let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      let composed = Rns_poly.automorphism (Rns_poly.automorphism x ~k:k2) ~k:k1 in
      let direct = Rns_poly.automorphism x ~k:(k1 * k2 mod two_n) in
      limbs_equal composed direct)

let test_galois_perm_is_permutation =
  qtest ~count:50 "galois_perm is a bijection" QCheck2.Gen.(int_bound 10000)
    (fun kseed ->
      let k = (2 * kseed) + 1 in
      let perm = Ntt.galois_perm ~n:n_test ~k in
      let seen = Array.make n_test false in
      for j = 0 to n_test - 1 do
        seen.(Ntt.perm_nth perm j) <- true
      done;
      Array.for_all Fun.id seen)

(* Into-buffer variants agree with the allocating ones, including when
   the destination aliases an operand. *)
let test_into_ops_match_pure =
  qtest ~count:20 "into ops = pure ops (incl. aliasing)" QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let b = Lazy.force basis5 in
      let x = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      let y = Rns_poly.random ~n:n_test ~basis:b ~domain:Rns_poly.Eval rng in
      let dst = Rns_poly.create_like x in
      Rns_poly.add_into ~dst x y;
      let ok_add = limbs_equal dst (Rns_poly.add x y) in
      Rns_poly.sub_into ~dst x y;
      let ok_sub = limbs_equal dst (Rns_poly.sub x y) in
      Rns_poly.mul_into ~dst x y;
      let ok_mul = limbs_equal dst (Rns_poly.mul x y) in
      Rns_poly.scalar_mul_into ~dst x (-12345);
      let ok_scal = limbs_equal dst (Rns_poly.scalar_mul x (-12345)) in
      (* aliased: dst == first operand *)
      let expect = Rns_poly.add x y in
      let x' = Rns_poly.copy x in
      Rns_poly.add_into ~dst:x' x' y;
      let ok_alias = limbs_equal x' expect in
      ok_add && ok_sub && ok_mul && ok_scal && ok_alias)

let test_ntt_into_matches () =
  let q = Lazy.force q0 in
  let rng = Rng.create ~seed:23 in
  let plan = Ntt.plan ~q ~n:n_test in
  let a = Array.init n_test (fun _ -> Rng.int rng q) in
  let dst = Limb_buf.create n_test in
  Ntt.forward_into plan ~src:(Limb_buf.of_int_array a) ~dst;
  Alcotest.(check (array int)) "forward_into = oracle" (Ntt_ref.forward ~q a)
    (Limb_buf.to_int_array dst);
  let inv = Limb_buf.create n_test in
  Ntt.inverse_into plan ~src:dst ~dst:inv;
  Alcotest.(check (array int)) "roundtrip" a (Limb_buf.to_int_array inv);
  (* aliasing src == dst *)
  let b = Limb_buf.of_int_array a in
  Ntt.forward_into plan ~src:b ~dst:b;
  Alcotest.(check (array int)) "aliased forward_into" (Ntt_ref.forward ~q a)
    (Limb_buf.to_int_array b)

(* --- Base_conv / Mod_updown ---------------------------------------------------- *)

let test_base_conv_approximate =
  qtest ~count:10 "fast conv = exact + e*Q, 0 <= e < l" QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let src = Lazy.force basis5 in
      let dst =
        Basis.of_primes (Prime_gen.gen_primes ~bits:29 ~n:n_test ~count:3 ~avoid:(Lazy.force primes) ())
      in
      let x = Rns_poly.random ~n:n_test ~basis:src ~domain:Rns_poly.Coeff rng in
      let fast = Base_conv.convert x ~dst in
      let q_prod = Basis.product src in
      let ok = ref true in
      for i = 0 to n_test - 1 do
        (* value of x in [0, Q) *)
        let v, negp = Rns_poly.coeff_centered x i in
        let xfull = if negp then B.sub q_prod v else v in
        let found = ref false in
        for e = 0 to Basis.size src do
          let cand = B.add xfull (B.mul_small q_prod e) in
          let matches =
            List.for_all
              (fun k ->
                B.rem_small cand (Basis.value dst k) = Limb_buf.get (Rns_poly.unsafe_limb_view fast k) i)
              [ 0; 1; 2 ]
          in
          if matches then found := true
        done;
        if not !found then ok := false
      done;
      !ok)

(* The column kernel over summed shares: fed the integer sum of S
   canonical stage-1 inputs (each limb < S·q_j), the column is bitwise
   the sum mod p_k of the S per-share columns.  30-bit sources below
   30-bit destinations are not pre-reduced and leave a lazy batch of
   about 4 terms, so S > 4 takes the pre-reduce-everything fallback;
   the 26-bit destination pre-reduces every source at any S.
   All-maximal residues make any overflow of the shrunk batch show. *)
let test_base_conv_summed_shares =
  qtest ~count:40 "column of summed shares = sum of share columns"
    QCheck2.Gen.(quad (int_range 1 40) (int_range 1 64) bool (int_bound 10000))
    (fun (n, shares, maximal, seed) ->
      let rng = Rng.create ~seed in
      let wide = Prime_gen.gen_primes ~bits:30 ~n:n_test ~count:2 () in
      let src = Basis.of_primes (Prime_gen.gen_primes ~bits:30 ~n:n_test ~count:5 ~avoid:wide ()) in
      let dst = Basis.of_primes (wide @ Prime_gen.gen_primes ~bits:26 ~n:n_test ~count:1 ()) in
      let tbl = Base_conv.table ~src ~dst in
      let l = Basis.size src in
      let share_limbs =
        Array.init shares (fun _ ->
            Array.init l (fun j ->
                let q = Basis.value src j in
                Limb_buf.init n (fun _ -> if maximal then q - 1 else Rng.int rng q)))
      in
      let sums =
        Array.init l (fun j ->
            Limb_buf.init n (fun i ->
                Array.fold_left (fun a sh -> a + Limb_buf.get sh.(j) i) 0 share_limbs))
      in
      List.for_all
        (fun k ->
          let pk = Basis.value dst k in
          let got = Limb_buf.create n in
          Base_conv.accumulate_column_into ~shares tbl ~scaled:sums ~dst:got ~k;
          let want = Array.make n 0 in
          Array.iter
            (fun sh ->
              let col = Limb_buf.create n in
              Base_conv.accumulate_column_into tbl ~scaled:sh ~dst:col ~k;
              Array.iteri (fun i v -> want.(i) <- (v + Limb_buf.get col i) mod pk) want)
            share_limbs;
          Limb_buf.to_int_array got = want)
        (List.init (Basis.size dst) Fun.id))

let test_base_conv_exact_oracle () =
  let _rng = Rng.create ~seed:19 in
  let src = Lazy.force basis5 in
  let dst =
    Basis.of_primes (Prime_gen.gen_primes ~bits:29 ~n:n_test ~count:2 ~avoid:(Lazy.force primes) ())
  in
  (* small values convert exactly (no overflow ambiguity): build from
     small coefficients *)
  let x = Rns_poly.of_coeffs ~basis:src ~domain:Rns_poly.Coeff (Array.init n_test (fun i -> i - 32)) in
  let exact = Cinnamon_oracle.Base_conv_ref.convert_exact x ~dst in
  for i = 0 to n_test - 1 do
    Alcotest.(check (float 1e-9)) "exact preserves value"
      (Float.of_int (i - 32))
      (Rns_poly.coeff_float (Rns_poly.restrict exact dst) i)
  done

let test_mod_down_divides () =
  let rng = Rng.create ~seed:20 in
  let target = Lazy.force basis5 in
  let ext =
    Basis.of_primes (Prime_gen.gen_primes ~bits:29 ~n:n_test ~count:3 ~avoid:(Lazy.force primes) ())
  in
  let qp = Basis.union target ext in
  let y = Rns_poly.random ~n:n_test ~basis:qp ~domain:Rns_poly.Coeff rng in
  let z = Cinnamon_oracle.Mod_updown.mod_down y ~target ~ext in
  (* y_Q - P*z must be small: in [-(slack+1)*P, (slack+1)*P] *)
  let p_prod = Basis.product ext in
  let pscal = Array.init (Basis.size target) (fun j -> B.rem_small p_prod (Basis.value target j)) in
  let w = Rns_poly.sub (Rns_poly.restrict y target) (Rns_poly.scalar_mul_per_limb (Rns_poly.to_coeff z) (fun j -> pscal.(j))) in
  let bound = B.to_float p_prod *. Float.of_int (Basis.size ext + 2) in
  for i = 0 to n_test - 1 do
    Alcotest.(check bool) "remainder bounded" true (Float.abs (Rns_poly.coeff_float w i) < bound)
  done

let test_mod_up_consistent () =
  let rng = Rng.create ~seed:21 in
  let s = Basis.prefix (Lazy.force basis5) 2 in
  let ext =
    Basis.of_primes (Prime_gen.gen_primes ~bits:29 ~n:n_test ~count:2 ~avoid:(Lazy.force primes) ())
  in
  let x = Rns_poly.random ~n:n_test ~basis:s ~domain:Rns_poly.Coeff rng in
  let up = Cinnamon_oracle.Mod_updown.mod_up x ~ext in
  (* original limbs carried over verbatim *)
  Alcotest.(check (array int)) "limb 0 preserved" (limb_arr x 0) (limb_arr up 0);
  Alcotest.(check int) "extended size" 4 (Rns_poly.level up)

let suite =
  ( "rns",
    [
      test_modarith_vs_native;
      test_modarith_add_sub;
      test_modarith_inv;
      Alcotest.test_case "modarith pow" `Quick test_modarith_pow;
      Alcotest.test_case "modarith neg/of_int" `Quick test_modarith_neg_of_int;
      Alcotest.test_case "cross-modulus reduction" `Quick test_modarith_30bit_sources;
      Alcotest.test_case "primes ntt-friendly" `Quick test_primes_are_ntt_friendly;
      Alcotest.test_case "is_prime" `Quick test_is_prime_small;
      Alcotest.test_case "primitive 2N-th root" `Quick test_primitive_root;
      Alcotest.test_case "balanced primes" `Quick test_primes_near_balance;
      Alcotest.test_case "ntt roundtrip" `Quick test_ntt_roundtrip;
      Alcotest.test_case "ntt convolution" `Quick test_ntt_convolution;
      test_ntt_linear;
      Alcotest.test_case "ntt X shift" `Quick test_ntt_x_shift;
      Alcotest.test_case "basis basics" `Quick test_basis_basics;
      Alcotest.test_case "basis digits" `Quick test_basis_digits;
      Alcotest.test_case "modular partition" `Quick test_basis_modular_partition;
      Alcotest.test_case "basis union" `Quick test_basis_union_disjoint;
      Alcotest.test_case "basis product" `Quick test_basis_product;
      test_rns_add_sub;
      Alcotest.test_case "of_coeffs centered" `Quick test_rns_of_coeffs_centered;
      Alcotest.test_case "domain roundtrip" `Quick test_rns_domain_roundtrip;
      Alcotest.test_case "rns mul naive" `Quick test_rns_mul_matches_naive;
      Alcotest.test_case "automorphism composes" `Quick test_automorphism_composition;
      Alcotest.test_case "automorphism identity" `Quick test_automorphism_identity;
      Alcotest.test_case "monomial mul" `Quick test_monomial_mul;
      Alcotest.test_case "restrict/concat" `Quick test_restrict_concat;
      test_ntt_mul_random_shapes;
      test_automorphism_eval_vs_coeff_oracle;
      test_automorphism_eval_composed;
      test_galois_perm_is_permutation;
      test_into_ops_match_pure;
      Alcotest.test_case "ntt into variants" `Quick test_ntt_into_matches;
      test_base_conv_approximate;
      test_base_conv_summed_shares;
      Alcotest.test_case "exact conv oracle" `Quick test_base_conv_exact_oracle;
      Alcotest.test_case "mod_down divides" `Quick test_mod_down_divides;
      Alcotest.test_case "mod_up consistent" `Quick test_mod_up_consistent;
    ] )
