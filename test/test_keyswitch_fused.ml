(* Differential tests for the fused keyswitch engine.

   Keyswitch_fused streams the hybrid-keyswitch dataflow limb-major
   with fused scaling, skipped round-trip transforms, and lazy
   cross-digit accumulation — every one of those rewrites claims
   BITWISE equality with the plain formulation, so these tests pin:

     - fused keyswitch = Cinnamon_oracle.Keyswitch.keyswitch (the
       whole-polynomial oracle) across every level prefix of the
       modulus chain and across dnum = 1..4 digit layouts (partial last
       digits included);
     - Eval.rotate_many = the reference hoisting path in
       Cinnamon_oracle.Hoisting_ref (extend_digit + automorphism +
       canonical inner product + whole-polynomial mod-down), bitwise;
     - Eval.rotate_sum = the batched reference in Hoisting_ref
       (accumulators carried across rotations, one mod-down), bitwise;
     - Eval.rotate_sum (one mod-down for the whole batch) decrypts to the
       sum of individual rotations within CKKS noise. *)

open Cinnamon_ckks
open Cinnamon_rns
module Rng = Cinnamon_util.Rng
module Oracle = Cinnamon_oracle

let env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:909 in
     let sk = Keys.gen_secret_key params rng in
     let pk = Keys.gen_public_key params sk rng in
     let ek = Keys.provision params sk ~rotations:[ 1; 2; 3; 5; 8; 13 ] ~conjugation:false rng in
     (params, sk, pk, ek))

let random_eval ?(seed = 11) params ~level =
  let rng = Rng.create ~seed in
  Rns_poly.random ~n:params.Params.n
    ~basis:(Params.basis_at_level params level)
    ~domain:Rns_poly.Eval rng

let pair_equal (a0, a1) (b0, b1) = Rns_poly.equal a0 b0 && Rns_poly.equal a1 b1

(* --- fused vs oracle, every level prefix --------------------------------- *)

let test_fused_matches_oracle_all_levels () =
  let params, _, _, ek = Lazy.force env in
  let relin = ek.Keys.relin in
  for level = 0 to params.Params.levels do
    let c = random_eval ~seed:(100 + level) params ~level in
    let oracle = Oracle.Keyswitch.keyswitch params relin c in
    let fused = Keyswitch_fused.keyswitch params relin c in
    Alcotest.(check bool)
      (Printf.sprintf "level %d bitwise" level)
      true (pair_equal oracle fused)
  done

(* --- fused vs oracle across digit layouts -------------------------------- *)

(* dnum from 1 (one digit, no interior split) to 4 (partial last digit:
   levels+1 = 6 limbs over 4 digits of alpha = 2) at a small ring, plus
   level prefixes that clip digits mid-range. *)
let test_fused_matches_oracle_dnum_sweep () =
  List.iter
    (fun dnum ->
      let params = Params.make ~log_n:6 ~levels:5 ~dnum ~slots:8 () in
      let rng = Rng.create ~seed:(600 + dnum) in
      let sk = Keys.gen_secret_key params rng in
      let relin = Keys.gen_relin_key params sk rng in
      List.iter
        (fun level ->
          let c = random_eval ~seed:(40 + dnum + level) params ~level in
          let oracle = Oracle.Keyswitch.keyswitch params relin c in
          let fused = Keyswitch_fused.keyswitch params relin c in
          Alcotest.(check bool)
            (Printf.sprintf "dnum=%d level=%d bitwise" dnum level)
            true (pair_equal oracle fused))
        [ 0; 2; 3; 5 ])
    [ 1; 2; 3; 4 ]

(* --- hoisted rotations: fused vs reference, bitwise ----------------------- *)

let encrypt_test_vector ?(seed = 21) (params : Params.t) pk =
  let rng = Rng.create ~seed in
  let xs = Array.init params.Params.slots (fun i -> sin (0.1 *. Float.of_int i)) in
  (xs, Encrypt.encrypt_real params pk xs rng)

let test_hoisted_fused_matches_reference () =
  let params, _, pk, ek = Lazy.force env in
  let _, ct = encrypt_test_vector params pk in
  let pre_ref = Oracle.Hoisting_ref.precompute_ref params ct.Ciphertext.c1 in
  List.iter
    (fun (rot, fused) ->
      let swk = Keys.find_rotation_key ek (Keys.canonical_rotation ~n:(Ciphertext.n ct) rot) in
      let refr = Oracle.Hoisting_ref.rotate_hoisted_ref params pre_ref swk ct ~rot in
      Alcotest.(check bool)
        (Printf.sprintf "rot %d bitwise" rot)
        true
        (Rns_poly.equal fused.Ciphertext.c0 refr.Ciphertext.c0
        && Rns_poly.equal fused.Ciphertext.c1 refr.Ciphertext.c1))
    (Eval.rotate_many (Eval.context params ek) ct [ 1; 3; 8; 13 ])

(* --- rotate_sum ----------------------------------------------------------- *)

let test_rotate_sum_matches_individual_rotations () =
  let params, sk, pk, ek = Lazy.force env in
  let xs, ct = encrypt_test_vector ~seed:23 params pk in
  let slots = params.Params.slots in
  let rots = [ 0; 1; 3; 8 ] in
  let summed = Eval.rotate_sum (Eval.context params ek) ct rots in
  let got = Encrypt.decrypt_real params sk summed in
  let expect =
    Array.init slots (fun i ->
        List.fold_left (fun acc r -> acc +. xs.((i + r) mod slots)) 0.0 rots)
  in
  Alcotest.(check bool)
    "rotate_sum ~ sum of rotations" true
    (Cinnamon_util.Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

(* The accumulate-then-mod-down path against the batched reference:
   accumulators carried across rotations, one mod-down at the end,
   bitwise, at the top level and a truncated one, with and without a
   rotation by 0. *)
let test_rotate_sum_matches_reference () =
  let params, _, pk, ek = Lazy.force env in
  let _, top = encrypt_test_vector ~seed:26 params pk in
  List.iter
    (fun level ->
      let ct = Ciphertext.drop_to_level top level in
      let pre_ref = Oracle.Hoisting_ref.precompute_ref params ct.Ciphertext.c1 in
      List.iter
        (fun rots ->
          let fused = Eval.rotate_sum (Eval.context params ek) ct rots in
          let refr = Oracle.Hoisting_ref.rotate_sum_ref params pre_ref ek ct rots in
          Alcotest.(check bool)
            (Printf.sprintf "level %d, rots [%s] bitwise" level
               (String.concat "; " (List.map string_of_int rots)))
            true
            (Rns_poly.equal fused.Ciphertext.c0 refr.Ciphertext.c0
            && Rns_poly.equal fused.Ciphertext.c1 refr.Ciphertext.c1))
        [ [ 1; 5; 13 ]; [ 0; 2; 8; 3 ] ])
    [ params.Params.levels; 5 ]

(* --- end-to-end through Eval ---------------------------------------------- *)

(* Eval.mul and Eval.rotate now ride the fused engine; a quick
   decrypt-level sanity check guards the rewiring. *)
let test_eval_rides_fused () =
  let params, sk, pk, ek = Lazy.force env in
  let ctx = Eval.context params ek in
  let xs, ct = encrypt_test_vector ~seed:25 params pk in
  let slots = params.Params.slots in
  let sq = Encrypt.decrypt_real params sk (Eval.mul ctx ct ct) in
  let expect_sq = Array.map (fun x -> x *. x) xs in
  Alcotest.(check bool)
    "mul (relin fused)" true
    (Cinnamon_util.Stats.max_abs_error ~expected:expect_sq ~actual:sq < 1e-3);
  let rot = Encrypt.decrypt_real params sk (Eval.rotate ctx ct 3) in
  let expect_rot = Array.init slots (fun i -> xs.((i + 3) mod slots)) in
  Alcotest.(check bool)
    "rotate fused" true
    (Cinnamon_util.Stats.max_abs_error ~expected:expect_rot ~actual:rot < 1e-3)

let suite =
  ( "keyswitch_fused",
    [
      Alcotest.test_case "fused = oracle at every level" `Quick test_fused_matches_oracle_all_levels;
      Alcotest.test_case "fused = oracle, dnum 1..4" `Quick test_fused_matches_oracle_dnum_sweep;
      Alcotest.test_case "hoisted fused = reference (bitwise)" `Quick
        test_hoisted_fused_matches_reference;
      Alcotest.test_case "rotate_sum ~ individual rotations" `Quick
        test_rotate_sum_matches_individual_rotations;
      Alcotest.test_case "rotate_sum = reference (bitwise)" `Quick test_rotate_sum_matches_reference;
      Alcotest.test_case "eval rides the fused engine" `Quick test_eval_rides_fused;
    ] )
