(* Tests for the parallel keyswitching algorithms (paper §4.3.1,
   Fig. 8): bitwise equality of Keyswitch_alg.run (fused engine) with
   the whole-polynomial references in Cinnamon_oracle, and the
   communication accounting behind §7.4's algorithmic analysis. *)

open Cinnamon_ckks
open Cinnamon_rns
open Cinnamon_compiler
module Rng = Cinnamon_util.Rng
module KA = Keyswitch_alg
module Oracle = Cinnamon_oracle
module P = Cinnamon_ir.Poly_ir

let env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:303 in
     let sk = Keys.gen_secret_key params rng in
     let relin = Keys.gen_relin_key params sk rng in
     let s = Keys.sk_over sk (Params.qp_basis params) in
     let rr4 = KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:4 rng in
     let rr3 = KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:3 rng in
     (params, sk, relin, rr4, rr3))

let random_input ?(seed = 7) ?level params =
  let rng = Rng.create ~seed in
  let level = Option.value level ~default:params.Params.levels in
  Rns_poly.random ~n:params.Params.n
    ~basis:(Params.basis_at_level params level)
    ~domain:Rns_poly.Eval rng

let pair_equal (a0, a1) (b0, b1) = Rns_poly.equal a0 b0 && Rns_poly.equal a1 b1

let decrypt_diff params sk (k0a, k1a) (k0b, k1b) =
  let s = Keys.sk_over sk (Rns_poly.basis k0a) in
  let da = Rns_poly.add k0a (Rns_poly.mul k1a s) in
  let db = Rns_poly.add k0b (Rns_poly.mul k1b s) in
  let diff = Rns_poly.sub da db in
  let worst = ref 0.0 in
  for i = 0 to params.Params.n - 1 do
    worst := max !worst (Float.abs (Rns_poly.coeff_float diff i))
  done;
  !worst

(* --- input broadcast ------------------------------------------------------ *)

let test_input_broadcast_bit_exact () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input params in
  let seq = Oracle.Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run params ~algorithm:P.Input_broadcast ~chips:4 ~key:(KA.Standard relin) c cnt in
  Alcotest.(check bool) "k0 identical" true (Rns_poly.equal (fst seq) (fst par));
  Alcotest.(check bool) "k1 identical" true (Rns_poly.equal (snd seq) (snd par))

(* --- differential: run = the oracle references, bitwise ------------------ *)

(* Every algorithm through [run] against its per-chip whole-polynomial
   reference, and input broadcast and CiFHER also against the
   sequential oracle: a relinearization and a rotation key, the full
   level and a truncated prefix, chips 1..8.  Output aggregation runs
   wherever a chip's share fits alpha and must be rejected elsewhere. *)
let test_run_matches_oracles () =
  let params, sk, relin, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:505 in
  let s = Keys.sk_over sk (Params.qp_basis params) in
  let rot3 = Keys.gen_rotation_key params sk ~rot:3 rng in
  let s_rot3 = Rns_poly.automorphism s ~k:(Keys.galois_of_rotation ~n:params.Params.n 3) in
  let chip_counts = [ 1; 2; 3; 4; 8 ] in
  List.iter
    (fun (kname, swk, s_from) ->
      let rr =
        List.map
          (fun chips -> (chips, KA.gen_round_robin_key params sk ~s_from ~chips rng))
          chip_counts
      in
      List.iter
        (fun level ->
          let c = random_input ~seed:(30 + level) ~level params in
          let limbs = level + 1 in
          let seq = Oracle.Keyswitch.keyswitch params swk c in
          List.iter
            (fun chips ->
              let label = Printf.sprintf "%s level %d, %d chips" kname level chips in
              let run algorithm key = KA.run params ~algorithm ~chips ~key c (KA.new_counter ()) in
              let ib = run P.Input_broadcast (KA.Standard swk) in
              let cf = run P.Cifher_broadcast (KA.Standard swk) in
              Alcotest.(check bool) (label ^ ": input-broadcast = sequential oracle") true
                (pair_equal ib seq);
              Alcotest.(check bool) (label ^ ": input-broadcast = per-chip reference") true
                (pair_equal ib (Oracle.Keyswitch_alg_ref.input_broadcast params swk c ~chips));
              Alcotest.(check bool) (label ^ ": cifher = sequential oracle") true
                (pair_equal cf seq);
              Alcotest.(check bool) (label ^ ": cifher = reference") true
                (pair_equal cf (Oracle.Keyswitch_alg_ref.cifher params swk c ~chips));
              let rr_swk = List.assoc chips rr in
              if Cinnamon_util.Bitops.cdiv limbs chips <= params.Params.alpha then
                Alcotest.(check bool) (label ^ ": output-agg = per-chip reference") true
                  (pair_equal
                     (run P.Output_aggregation (KA.Round_robin rr_swk))
                     (Oracle.Keyswitch_alg_ref.output_aggregation params rr_swk c ~chips))
              else
                match run P.Output_aggregation (KA.Round_robin rr_swk) with
                | _ -> Alcotest.failf "%s: output-agg share > alpha must be rejected" label
                | exception Cinnamon_util.Error.Error e ->
                  Alcotest.(check bool) (label ^ ": typed rejection") true
                    (e.Cinnamon_util.Error.kind = Cinnamon_util.Error.Invalid_input))
            chip_counts)
        [ params.Params.levels; 5 ])
    [ ("relin", relin, Rns_poly.mul s s); ("rot 3", rot3, s_rot3) ]

let test_input_broadcast_comm () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:9 params in
  let cnt = KA.new_counter () in
  ignore (KA.run params ~algorithm:P.Input_broadcast ~chips:4 ~key:(KA.Standard relin) c cnt);
  Alcotest.(check int) "exactly 1 broadcast" 1 cnt.KA.n_broadcast;
  Alcotest.(check int) "no aggregations" 0 cnt.KA.n_aggregate;
  (* l limbs reach 3 other chips each *)
  Alcotest.(check int) "limbs moved" (Rns_poly.level c * 3) cnt.KA.limbs_moved

(* --- output aggregation ---------------------------------------------------- *)

let test_output_aggregation_equivalent () =
  let params, sk, relin, rr4, _ = Lazy.force env in
  let c = random_input ~seed:10 params in
  let seq = Oracle.Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run params ~algorithm:P.Output_aggregation ~chips:4 ~key:(KA.Round_robin rr4) c cnt in
  (* different digit decomposition => different noise, same plaintext *)
  let err = decrypt_diff params sk seq par in
  Alcotest.(check bool)
    (Printf.sprintf "decrypt-equivalent (err 2^%.1f vs Q 2^238)" (log err /. log 2.0))
    true (err < 1e12)

let test_output_aggregation_comm () =
  let params, _, _, rr4, _ = Lazy.force env in
  let c = random_input ~seed:11 params in
  let cnt = KA.new_counter () in
  ignore (KA.run params ~algorithm:P.Output_aggregation ~chips:4 ~key:(KA.Round_robin rr4) c cnt);
  Alcotest.(check int) "exactly 2 aggregations" 2 cnt.KA.n_aggregate;
  Alcotest.(check int) "no broadcasts" 0 cnt.KA.n_broadcast;
  (* each reduce-scatter moves l*(chips-1) limbs: 9*3 = 27, which 4
     chips do not divide *)
  Alcotest.(check int) "limbs moved" (2 * 27) cnt.KA.limbs_moved

let test_output_aggregation_odd_chips () =
  let params, sk, relin, _, rr3 = Lazy.force env in
  let c = random_input ~seed:12 params in
  let seq = Oracle.Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run params ~algorithm:P.Output_aggregation ~chips:3 ~key:(KA.Round_robin rr3) c cnt in
  Alcotest.(check bool) "3-chip digits" true (decrypt_diff params sk seq par < 1e12)

(* At 2 chips a chip holds ceil(9/2) = 5 limbs of Params.small, more
   than alpha = 3: the digit product would exceed P and decrypt as
   noise, so the run is rejected. *)
let test_output_aggregation_share_exceeds_alpha () =
  let params, sk, _, _, _ = Lazy.force env in
  let s = Keys.sk_over sk (Params.qp_basis params) in
  let rr2 =
    KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:2 (Rng.create ~seed:17)
  in
  let c = random_input ~seed:16 params in
  match
    KA.run params ~algorithm:P.Output_aggregation ~chips:2 ~key:(KA.Round_robin rr2) c
      (KA.new_counter ())
  with
  | _ -> Alcotest.fail "expected a typed invalid-input error"
  | exception Cinnamon_util.Error.Error e ->
    Alcotest.(check string)
      "typed invalid-input error"
      "invalid-input: Keyswitch_alg.run: output aggregation puts 5 limbs on one of 2 chips, more \
       than alpha = 3"
      (Cinnamon_util.Error.to_string e)

(* The shared mod-down: output aggregation's one keyswitch_shares call
   is bitwise the per-chip reference, at the top level and a truncated
   one. *)
let test_output_aggregation_matches_reference () =
  let params, _, _, rr4, _ = Lazy.force env in
  List.iter
    (fun level ->
      let c = random_input ~seed:(60 + level) ~level params in
      let limbs = level + 1 in
      let shares =
        List.init 4 (fun chip ->
            let idx = List.filter (fun i -> i mod 4 = chip) (List.init limbs Fun.id) in
            Keyswitch_fused.{ limbs = idx; key = chip })
      in
      let reference = Oracle.Keyswitch_alg_ref.output_aggregation params rr4 c ~chips:4 in
      Alcotest.(check bool)
        (Printf.sprintf "level %d: keyswitch_shares = reference" level)
        true
        (pair_equal (Keyswitch_fused.keyswitch_shares params shares rr4 c) reference))
    [ params.Params.levels; 5 ]

(* --- CiFHER --------------------------------------------------------------- *)

let test_cifher_exact_and_3_broadcasts () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:13 params in
  let seq = Oracle.Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run params ~algorithm:P.Cifher_broadcast ~chips:4 ~key:(KA.Standard relin) c cnt in
  Alcotest.(check bool) "bit-exact" true (Rns_poly.equal (fst seq) (fst par));
  Alcotest.(check int) "3 broadcasts" 3 cnt.KA.n_broadcast

(* --- dispatcher ------------------------------------------------------------ *)

let test_dispatcher_rejects_mismatch () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:14 params in
  let cnt = KA.new_counter () in
  match
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Output_aggregation ~chips:4
      ~key:(KA.Standard relin) c cnt
  with
  | _ -> Alcotest.fail "expected a typed invalid-input error"
  | exception Cinnamon_util.Error.Error e ->
    Alcotest.(check string)
      "typed invalid-input error" "invalid-input: Keyswitch_alg.run: algorithm/key mismatch"
      (Cinnamon_util.Error.to_string e)

(* Chip counts [run] cannot honour are typed input errors, raised
   before any communication is counted. *)
let test_dispatcher_rejects_chip_counts () =
  let params, sk, relin, rr4, _ = Lazy.force env in
  let s = Keys.sk_over sk (Params.qp_basis params) in
  let rr2 =
    KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:2 (Rng.create ~seed:18)
  in
  (* 6 limbs: 3 chips hold 2 each, within alpha, so only the key's
     pair count is wrong *)
  let c = random_input ~seed:19 ~level:5 params in
  List.iter
    (fun (label, algorithm, chips, key) ->
      let cnt = KA.new_counter () in
      (match KA.run params ~algorithm ~chips ~key c cnt with
      | _ -> Alcotest.failf "%s: expected a typed invalid-input error" label
      | exception Cinnamon_util.Error.Error e ->
        Alcotest.(check bool) (label ^ ": invalid-input") true
          (e.Cinnamon_util.Error.kind = Cinnamon_util.Error.Invalid_input));
      Alcotest.(check (list int))
        (label ^ ": nothing counted") [ 0; 0; 0 ]
        [ cnt.KA.n_broadcast; cnt.KA.n_aggregate; cnt.KA.limbs_moved ])
    [
      ("output-agg, 0 chips", P.Output_aggregation, 0, KA.Round_robin rr4);
      ("output-agg, -1 chips", P.Output_aggregation, -1, KA.Round_robin rr4);
      ("output-agg, 2-chip key at 3 chips", P.Output_aggregation, 3, KA.Round_robin rr2);
      ("input-broadcast, 0 chips", P.Input_broadcast, 0, KA.Standard relin);
      ("cifher, 0 chips", P.Cifher_broadcast, 0, KA.Standard relin);
    ]

let test_dispatcher_routes () =
  let params, _, relin, rr4, _ = Lazy.force env in
  let c = random_input ~seed:15 params in
  let cnt = KA.new_counter () in
  let a = KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Seq ~chips:4 ~key:(KA.Standard relin) c cnt in
  let b =
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Input_broadcast ~chips:4 ~key:(KA.Standard relin) c cnt
  in
  Alcotest.(check bool) "seq = ib" true (Rns_poly.equal (fst a) (fst b));
  let _ =
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Output_aggregation ~chips:4 ~key:(KA.Round_robin rr4)
      c cnt
  in
  Alcotest.(check bool) "counter accumulated" true (cnt.KA.n_broadcast >= 1 && cnt.KA.n_aggregate = 2)

(* rotation keyswitching through the parallel algorithms, end to end *)
let test_parallel_rotation_correct () =
  let params, sk, _, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:404 in
  let pk = Keys.gen_public_key params sk rng in
  let swk = Keys.gen_rotation_key params sk ~rot:3 rng in
  let xs = Array.init 64 (fun i -> Float.of_int i /. 100.0) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let k = Keys.galois_of_rotation ~n:params.Params.n 3 in
  let c0r = Rns_poly.automorphism ct.Ciphertext.c0 ~k in
  let c1r = Rns_poly.automorphism ct.Ciphertext.c1 ~k in
  let cnt = KA.new_counter () in
  let k0, k1 = KA.run params ~algorithm:P.Input_broadcast ~chips:4 ~key:(KA.Standard swk) c1r cnt in
  let rotated =
    Ciphertext.make ~c0:(Rns_poly.add c0r k0) ~c1:k1 ~scale:(Ciphertext.scale ct)
      ~slots:(Ciphertext.slots ct)
  in
  let got = Encrypt.decrypt_real params sk rotated in
  let expect = Array.init 64 (fun i -> xs.((i + 3) mod 64)) in
  Alcotest.(check bool) "parallel rotation decrypts" true
    (Cinnamon_util.Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

let suite =
  ( "keyswitch-alg",
    [
      Alcotest.test_case "input-broadcast bit-exact" `Quick test_input_broadcast_bit_exact;
      Alcotest.test_case "run = oracle references" `Quick test_run_matches_oracles;
      Alcotest.test_case "input-broadcast comm" `Quick test_input_broadcast_comm;
      Alcotest.test_case "output-agg equivalent" `Quick test_output_aggregation_equivalent;
      Alcotest.test_case "output-agg comm" `Quick test_output_aggregation_comm;
      Alcotest.test_case "output-agg 3 chips" `Quick test_output_aggregation_odd_chips;
      Alcotest.test_case "output-agg share > alpha" `Quick
        test_output_aggregation_share_exceeds_alpha;
      Alcotest.test_case "output-agg = reference" `Quick test_output_aggregation_matches_reference;
      Alcotest.test_case "cifher exact + comm" `Quick test_cifher_exact_and_3_broadcasts;
      Alcotest.test_case "dispatcher key check" `Quick test_dispatcher_rejects_mismatch;
      Alcotest.test_case "dispatcher chip-count check" `Quick test_dispatcher_rejects_chip_counts;
      Alcotest.test_case "dispatcher routing" `Quick test_dispatcher_routes;
      Alcotest.test_case "parallel rotation e2e" `Quick test_parallel_rotation_correct;
    ] )
