(* Tests for the extension features: hoisted rotations, static noise
   analysis, the power model, and a random-program differential fuzzer
   that cross-checks the functional emulator (running the parallel
   keyswitching algorithms) against direct CKKS evaluation. *)

open Cinnamon_ckks
module Rng = Cinnamon_util.Rng
module Stats = Cinnamon_util.Stats
module Dsl = Cinnamon.Dsl

let env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:606 in
     let sk = Keys.gen_secret_key params rng in
     let pk = Keys.gen_public_key params sk rng in
     let ek = Keys.provision params sk ~rotations:[ 1; 2; 3; 5; 8; 13 ] ~conjugation:true rng in
     (params, sk, pk, ek))

(* --- hoisted rotations ------------------------------------------------- *)

let test_hoisted_matches_plain_rotation () =
  let params, sk, pk, ek = Lazy.force env in
  let rng = Rng.create ~seed:1 in
  let xs = Array.init 64 (fun i -> Float.of_int i /. 128.0) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let results = Eval.rotate_many (Eval.context params ek) ct [ 1; 3; 8 ] in
  List.iter
    (fun (rot, rct) ->
      let got = Encrypt.decrypt_real params sk rct in
      let expect = Array.init 64 (fun i -> xs.((i + rot) mod 64)) in
      Alcotest.(check bool)
        (Printf.sprintf "hoisted rotation by %d" rot)
        true
        (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3))
    results

let test_hoisted_zero_is_identity () =
  let params, _, pk, ek = Lazy.force env in
  let rng = Rng.create ~seed:2 in
  let ct = Encrypt.encrypt_real params pk (Array.make 64 0.25) rng in
  match Eval.rotate_many (Eval.context params ek) ct [ 0 ] with
  | [ (0, r) ] -> Alcotest.(check bool) "same ciphertext" true (r == ct)
  | _ -> Alcotest.fail "unexpected result shape"

let test_hoisted_shares_decomposition () =
  (* hoisting must agree with Eval.rotate after decryption (within
     noise), for many amounts from one shared decomposition *)
  let params, sk, pk, ek = Lazy.force env in
  let ctx = Eval.context params ek in
  let rng = Rng.create ~seed:3 in
  let xs = Array.init 64 (fun i -> sin (Float.of_int i)) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let hoisted = Eval.rotate_many ctx ct [ 2; 5; 13 ] in
  List.iter
    (fun (rot, rct) ->
      let a = Encrypt.decrypt_real params sk rct in
      let b = Encrypt.decrypt_real params sk (Eval.rotate ctx ct rot) in
      Alcotest.(check bool)
        (Printf.sprintf "hoisted ~ plain (rot %d)" rot)
        true
        (Stats.max_abs_error ~expected:b ~actual:a < 1e-3))
    hoisted

(* --- noise analysis ------------------------------------------------------ *)

let test_noise_monotone_in_depth () =
  let open Cinnamon_compiler in
  let prog_of depth =
    Dsl.program ~top_level:30 (fun p ->
        let a = Dsl.input p "a" in
        let x = ref a in
        for _ = 1 to depth do
          x := Dsl.mul !x a
        done;
        Dsl.output !x "out")
  in
  let worst d = (Noise.analyze ~n:1024 ~delta:(2.0 ** 26.0) (prog_of d)).Noise.worst in
  Alcotest.(check bool) "deeper is noisier" true (worst 8 > worst 2);
  Alcotest.(check bool) "rotation adds noise" true
    ((Noise.analyze
        (Dsl.program (fun p -> Dsl.output (Dsl.rotate (Dsl.input p "a") 1) "o")))
       .Noise.worst
    > (Noise.analyze (Dsl.program (fun p -> Dsl.output (Dsl.input p "a") "o"))).Noise.worst)

let test_noise_bootstrap_resets () =
  let open Cinnamon_compiler in
  let deep =
    Dsl.program ~top_level:30 (fun p ->
        let a = Dsl.input p "a" in
        let x = ref a in
        for _ = 1 to 10 do
          x := Dsl.mul !x a
        done;
        Dsl.output (Dsl.bootstrap !x) "out")
  in
  let est = Noise.analyze deep in
  Alcotest.(check bool) "bootstrap output at floor" true
    (est.Noise.worst <= Noise.bootstrap_floor_bits +. 0.01)

let test_noise_estimate_bounds_measurement () =
  (* the static estimate must upper-bound the observed error of a real
     execution of the same computation *)
  let params, sk, pk, ek = Lazy.force env in
  let ctx = Eval.context params ek in
  let rng = Rng.create ~seed:4 in
  let xs = Array.init 64 (fun i -> 0.5 *. cos (Float.of_int i)) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  (* computation: ((x*x) rotated by 1) + x *)
  let r = Eval.add (Eval.rotate ctx (Eval.square ctx ct) 1) ct in
  let got = Encrypt.decrypt_real params sk r in
  let expect = Array.init 64 (fun i -> (xs.((i + 1) mod 64) ** 2.0) +. xs.(i)) in
  let measured_bits =
    log (Stats.max_abs_error ~expected:expect ~actual:got) /. log 2.0
  in
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" in
        Dsl.output (Dsl.add (Dsl.rotate (Dsl.square a) 1) a) "out")
  in
  let est =
    Cinnamon_compiler.Noise.analyze ~n:params.Params.n ~sigma:params.Params.sigma
      ~delta:params.Params.scale prog
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate 2^%.1f >= measured 2^%.1f" est.Cinnamon_compiler.Noise.worst measured_bits)
    true
    (est.Cinnamon_compiler.Noise.worst >= measured_bits)

let test_noise_validate () =
  let open Cinnamon_compiler in
  let shallow = Dsl.program (fun p -> Dsl.output (Dsl.input p "a") "o") in
  Alcotest.(check bool) "fresh ciphertext valid" true (Noise.validate (Noise.analyze shallow))

(* --- power model ----------------------------------------------------------- *)

let test_power_peak_near_reported () =
  let open Cinnamon_arch in
  let p =
    Power.peak_watts Power.cinnamon_chip ~hbm_gbps:2048.0 ~link_gbps:256.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.0f W near the paper's 190 W" p)
    true
    (p > 170.0 && p < 210.0)

let test_power_energy_consistent () =
  let open Cinnamon_arch in
  let fake_util u =
    { Cinnamon_sim.Simulator.cycles = 1_000_000; seconds = 1e-3;
      util = { Cinnamon_sim.Simulator.compute = u; memory = u; network = u };
      per_chip_cycles = [| 1_000_000 |]; per_chip_stats = [||] }
  in
  let e_lo = Power.of_simulation Power.cinnamon_chip Cinnamon_sim.Sim_config.cinnamon_4 (fake_util 0.1) in
  let e_hi = Power.of_simulation Power.cinnamon_chip Cinnamon_sim.Sim_config.cinnamon_4 (fake_util 0.9) in
  Alcotest.(check bool) "energy rises with utilization" true (e_hi.Power.joules > e_lo.Power.joules);
  Alcotest.(check bool) "average power below peak" true
    (e_hi.Power.avg_watts
    < Power.peak_watts Power.cinnamon_chip ~hbm_gbps:2048.0 ~link_gbps:256.0)

(* --- JKLS matrix-matrix multiplication --------------------------------------- *)

let test_matmul_permutations () =
  (* sigma/tau are permutations (bijective on slot indices) *)
  let d = 4 in
  let slots = d * d in
  List.iter
    (fun (name, perm) ->
      let image = List.sort_uniq compare (List.init slots perm) in
      Alcotest.(check int) (name ^ " bijective") slots (List.length image))
    [ ("sigma", Matmul.sigma_perm d); ("tau", Matmul.tau_perm d) ];
  (* sigma aligns row diagonals: sigma(A)[i,j] = A[i, i+j] *)
  Alcotest.(check int) "sigma(1,0) reads A[1,1]" 5 (Matmul.sigma_perm d ((1 * d) + 0));
  Alcotest.(check int) "tau(0,1) reads B[1,1]" 5 (Matmul.tau_perm d ((0 * d) + 1))

let matmul_env =
  lazy
    (let d = 4 in
     let slots = d * d in
     let params = Params.make ~log_n:10 ~levels:10 ~dnum:3 ~slots () in
     let rng = Rng.create ~seed:707 in
     let sk = Keys.gen_secret_key params rng in
     let pk = Keys.gen_public_key params sk rng in
     let ek =
       Keys.provision params sk ~rotations:(Matmul.required_rotations ~d) ~conjugation:false rng
     in
     (d, params, sk, pk, Eval.context params ek))

let test_matmul_correct () =
  let d, params, sk, pk, ctx = Lazy.force matmul_env in
  let rng = Rng.create ~seed:5 in
  let slots = d * d in
  let a = Array.init slots (fun i -> 0.2 *. sin (Float.of_int i)) in
  let b = Array.init slots (fun i -> 0.2 *. cos (Float.of_int (2 * i))) in
  let ca = Encrypt.encrypt_real params pk a rng in
  let cb = Encrypt.encrypt_real params pk b rng in
  let got = Encrypt.decrypt_real params sk (Matmul.mul ctx ~d ca cb) in
  let expect = Matmul.mul_plain_ref ~d a b in
  Alcotest.(check bool) "C = A*B" true (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

let test_matmul_identity () =
  let d, params, sk, pk, ctx = Lazy.force matmul_env in
  let rng = Rng.create ~seed:6 in
  let slots = d * d in
  let a = Array.init slots (fun i -> 0.3 *. cos (Float.of_int i)) in
  let id = Array.init slots (fun i -> if i / d = i mod d then 1.0 else 0.0) in
  let ca = Encrypt.encrypt_real params pk a rng in
  let ci = Encrypt.encrypt_real params pk id rng in
  let got = Encrypt.decrypt_real params sk (Matmul.mul ctx ~d ca ci) in
  Alcotest.(check bool) "A*I = A" true (Stats.max_abs_error ~expected:a ~actual:got < 1e-3)

let test_matmul_shifts () =
  let d, params, sk, pk, ctx = Lazy.force matmul_env in
  let rng = Rng.create ~seed:7 in
  let slots = d * d in
  let a = Array.init slots (fun i -> Float.of_int i /. 20.0) in
  let ca = Encrypt.encrypt_real params pk a rng in
  let got = Encrypt.decrypt_real params sk (Matmul.column_shift ctx ~d ca 1) in
  let expect = Array.init slots (fun i -> a.((i / d * d) + ((i + 1) mod d))) in
  Alcotest.(check bool) "column shift" true (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3);
  let got = Encrypt.decrypt_real params sk (Matmul.row_shift ctx ~d ca 1) in
  let expect = Array.init slots (fun i -> a.((i + d) mod slots)) in
  Alcotest.(check bool) "row shift" true (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

(* --- random-program differential fuzzing ------------------------------------ *)

(* Generate a random straight-line FHE program, execute it (a) through
   the compiled-and-annotated functional emulator (parallel
   keyswitching on 4 chips) and (b) by direct plaintext computation,
   and compare. *)
let random_program_test seed =
  let params = Lazy.force Params.small in
  let rng = Rng.create ~seed:(9000 + seed) in
  let slots = 64 in
  let depth = 2 + Rng.int rng 3 in
  let rotations = List.init depth (fun _ -> 1 + Rng.int rng 15) in
  (* the plaintext mirror of each op *)
  let ops =
    List.init depth (fun i ->
        match Rng.int rng 4 with
        | 0 -> `Square
        | 1 -> `Rotate (List.nth rotations i)
        | 2 -> `MulConst (0.25 +. Rng.float rng)
        | _ -> `AddConst (Rng.float rng -. 0.5))
  in
  let prog =
    Dsl.program (fun p ->
        let v = ref (Dsl.input p "x") in
        List.iter
          (fun op ->
            v :=
              match op with
              | `Square -> Dsl.square !v
              | `Rotate r -> Dsl.rotate !v r
              | `MulConst c -> Dsl.mul_const !v c
              | `AddConst c -> Dsl.add_const !v c)
          ops;
        Dsl.output !v "out")
  in
  let reference xs =
    List.fold_left
      (fun v op ->
        match op with
        | `Square -> Array.map (fun x -> x *. x) v
        | `Rotate r -> Array.init slots (fun i -> v.((i + r) mod slots))
        | `MulConst c -> Array.map (fun x -> c *. x) v
        | `AddConst c -> Array.map (fun x -> x +. c) v)
      xs ops
  in
  let open Cinnamon_compiler in
  let cfg = Compile_config.functional ~chips:4 params in
  let poly = Lower_poly.lower cfg prog in
  let _ = Keyswitch_pass.run cfg poly in
  let module F = Cinnamon_emulator.Functional in
  let keys = F.gen_keys params ~chips:4 ~rotations:(F.rotations_of prog) rng in
  let xs = Array.init slots (fun i -> 0.4 *. sin (Float.of_int (i + seed))) in
  let inputs = Hashtbl.create 1 in
  Hashtbl.add inputs "x" (Encrypt.encrypt_real params keys.F.pk xs rng);
  let env = F.make_env ~params ~keys ~plaintexts:(Hashtbl.create 1) ~inputs ~poly in
  let out = List.assoc "out" (F.run env prog) in
  let got = Encrypt.decrypt_real params keys.F.sk out in
  let expect = reference xs in
  Stats.max_abs_error ~expected:expect ~actual:got < 0.02

let test_fuzz_random_programs () =
  for seed = 1 to 6 do
    Alcotest.(check bool) (Printf.sprintf "random program %d" seed) true (random_program_test seed)
  done

let suite =
  ( "extensions",
    [
      Alcotest.test_case "hoisted rotations correct" `Quick test_hoisted_matches_plain_rotation;
      Alcotest.test_case "hoisted zero identity" `Quick test_hoisted_zero_is_identity;
      Alcotest.test_case "hoisted = plain rotate" `Quick test_hoisted_shares_decomposition;
      Alcotest.test_case "noise monotone" `Quick test_noise_monotone_in_depth;
      Alcotest.test_case "noise bootstrap reset" `Quick test_noise_bootstrap_resets;
      Alcotest.test_case "noise bounds measurement" `Quick test_noise_estimate_bounds_measurement;
      Alcotest.test_case "noise validate" `Quick test_noise_validate;
      Alcotest.test_case "power peak ~190W" `Quick test_power_peak_near_reported;
      Alcotest.test_case "power energy consistent" `Quick test_power_energy_consistent;
      Alcotest.test_case "differential fuzz" `Slow test_fuzz_random_programs;
      Alcotest.test_case "matmul permutations" `Quick test_matmul_permutations;
      Alcotest.test_case "matmul correct" `Slow test_matmul_correct;
      Alcotest.test_case "matmul identity" `Slow test_matmul_identity;
      Alcotest.test_case "matmul shifts" `Quick test_matmul_shifts;
    ] )
