(* Tests for the emulator: end-to-end functional execution of compiled
   programs through the parallel keyswitching algorithms, compared
   against plain CKKS evaluation and the expected plaintext result (the
   paper's §6.2 emulator check).  The structural checks of compiled
   ISA programs are the static verifier's (test_verify.ml). *)

open Cinnamon_compiler
open Cinnamon_ckks
module Dsl = Cinnamon.Dsl
module F = Cinnamon_emulator.Functional
module Rng = Cinnamon_util.Rng
module Cplx = Cinnamon_util.Cplx
module Stats = Cinnamon_util.Stats

(* --- functional emulation ---------------------------------------------------- *)

(* Program: a small BSGS matvec followed by a slot-sum, covering both
   keyswitch patterns plus relinearization (via a square). *)
let demo_program =
  Dsl.program (fun p ->
      let v = Dsl.input p "v" in
      let m = Dsl.bsgs_matvec v ~diagonals:9 ~name:"m" in
      let s = Dsl.square m in
      Dsl.output s "out")

let emu_env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:505 in
     let cfg = Compile_config.functional ~chips:4 params in
     let poly = Lower_poly.lower cfg demo_program in
     let _report = Keyswitch_pass.run cfg poly in
     let rotations = F.rotations_of demo_program in
     let keys = F.gen_keys params ~chips:4 ~rotations rng in
     (params, cfg, poly, keys, rng))

let test_emulator_end_to_end () =
  let params, _, poly, keys, _ = Lazy.force emu_env in
  let rng = Rng.create ~seed:506 in
  let slots = 64 in
  let xs = Array.init slots (fun i -> 0.3 *. sin (Float.of_int i)) in
  let ct = Encrypt.encrypt_real params keys.F.pk xs rng in
  let inputs = Hashtbl.create 4 in
  Hashtbl.add inputs "v" ct;
  let plaintexts = Hashtbl.create 8 in
  let diags =
    List.init 9 (fun d ->
        let v = Array.init slots (fun i -> Cplx.make (0.2 *. cos (Float.of_int (i + d))) 0.0) in
        Hashtbl.add plaintexts (Printf.sprintf "m.diag%d" d) v;
        v)
  in
  let env = F.make_env ~params ~keys ~plaintexts ~inputs ~poly in
  let outputs = F.run env demo_program in
  let out = List.assoc "out" outputs in
  let got = Encrypt.decrypt_real params keys.F.sk out in
  (* expected: BSGS matvec with 4 diagonals then square *)
  let rotate_vec v k = Array.init slots (fun i -> v.((i + k) mod slots)) in
  let g = 3 (* bsgs group size for 9 diagonals *) in
  let expect = Array.make slots 0.0 in
  List.iteri
    (fun d dv ->
      let i = d / g and j = d mod g in
      let rot_d = rotate_vec xs j in
      let dvr = Array.map Cplx.re dv in
      (* diag was pre-rotated by -g*i in matvec_bsgs's plain analog;
         here the DSL names plain diagonals directly, so emulate the
         same arithmetic: term = rot(x, j) * diag, then rotated by g*i *)
      let term = Array.map2 ( *. ) rot_d dvr in
      let term = rotate_vec term (g * i) in
      Array.iteri (fun k v -> expect.(k) <- expect.(k) +. v) term)
    diags;
  let expect = Array.map (fun x -> x *. x) expect in
  Alcotest.(check bool)
    (Printf.sprintf "emulated = expected (err %g)" (Stats.max_abs_error ~expected:expect ~actual:got))
    true
    (Stats.max_abs_error ~expected:expect ~actual:got < 1e-2);
  (* communication happened through parallel algorithms *)
  Alcotest.(check bool) "parallel comm recorded" true
    (env.F.comm.Keyswitch_alg.n_broadcast + env.F.comm.Keyswitch_alg.n_aggregate > 0)

let test_emulator_uses_pass_algorithms () =
  let _, _, poly, _, _ = Lazy.force emu_env in
  let algs = F.algorithms_of_poly poly in
  let has alg = Hashtbl.fold (fun _ a acc -> acc || a = alg) algs false in
  Alcotest.(check bool) "input-broadcast present" true (has Cinnamon_ir.Poly_ir.Input_broadcast);
  Alcotest.(check bool) "output-aggregation present" true (has Cinnamon_ir.Poly_ir.Output_aggregation)

let test_emulator_add_only_program () =
  let params, _, poly, keys, _ = Lazy.force emu_env in
  ignore poly;
  let rng = Rng.create ~seed:507 in
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" and b = Dsl.input p "b" in
        Dsl.output (Dsl.add (Dsl.mul_const a 2.0) b) "out")
  in
  let cfg = Compile_config.functional ~chips:4 params in
  let poly' = Lower_poly.lower cfg prog in
  let _ = Keyswitch_pass.run cfg poly' in
  let xs = Array.init 64 (fun i -> Float.of_int i /. 100.0) in
  let ys = Array.init 64 (fun i -> Float.of_int (64 - i) /. 100.0) in
  let inputs = Hashtbl.create 4 in
  Hashtbl.add inputs "a" (Encrypt.encrypt_real params keys.F.pk xs rng);
  Hashtbl.add inputs "b" (Encrypt.encrypt_real params keys.F.pk ys rng);
  let env = F.make_env ~params ~keys ~plaintexts:(Hashtbl.create 1) ~inputs ~poly:poly' in
  let out = List.assoc "out" (F.run env prog) in
  let got = Encrypt.decrypt_real params keys.F.sk out in
  let expect = Array.map2 (fun x y -> (2.0 *. x) +. y) xs ys in
  Alcotest.(check bool) "2a+b" true (Stats.max_abs_error ~expected:expect ~actual:got < 1e-2)

(* The emulator must run Eval's ciphertext ops with only the keyswitch
   swapped.  Sequential, input-broadcast and CiFHER keyswitching are
   bitwise the fused keyswitch, so with every keyswitch node forced to
   one of them the emulator's outputs are Eval's, bit for bit. *)
let test_emulator_matches_eval_bitwise () =
  let params, _, _, keys, _ = Lazy.force emu_env in
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" and b = Dsl.input p "b" in
        let s = Dsl.add (Dsl.rotate (Dsl.mul a b) 3) (Dsl.conjugate (Dsl.square a)) in
        Dsl.output s "sum";
        Dsl.output (Dsl.mul_plain s "w") "scaled")
  in
  let rng = Rng.create ~seed:508 in
  let a = Encrypt.encrypt_real params keys.F.pk (Array.init 64 (fun i -> 0.2 *. sin (Float.of_int i))) rng in
  let b = Encrypt.encrypt_real params keys.F.pk (Array.init 64 (fun i -> 0.1 *. cos (Float.of_int i))) rng in
  let w = Array.init 64 (fun i -> Cplx.make (0.5 +. (0.01 *. Float.of_int i)) 0.0) in
  let expected =
    let ctx = Eval.context params keys.F.ek in
    let s = Eval.add (Eval.rotate ctx (Eval.mul ctx a b) 3) (Eval.conjugate ctx (Eval.square ctx a)) in
    [ ("sum", s); ("scaled", Eval.mul_plain ctx s w) ]
  in
  let poly = Lower_poly.lower (Compile_config.functional ~chips:4 params) prog in
  List.iter
    (fun (label, algorithm) ->
      let inputs = Hashtbl.create 2 and plaintexts = Hashtbl.create 1 in
      Hashtbl.add inputs "a" a;
      Hashtbl.add inputs "b" b;
      Hashtbl.add plaintexts "w" w;
      let env = F.make_env ~params ~keys ~plaintexts ~inputs ~poly in
      Hashtbl.reset env.F.algorithms;
      Array.iter (fun (n : Cinnamon_ir.Ct_ir.node) -> Hashtbl.replace env.F.algorithms n.id algorithm) prog.nodes;
      let got = F.run env prog in
      List.iter
        (fun (name, (e : Ciphertext.t)) ->
          let g = List.assoc name got in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s bitwise" label name)
            true
            (Cinnamon_rns.Rns_poly.equal g.c0 e.c0 && Cinnamon_rns.Rns_poly.equal g.c1 e.c1))
        expected)
    Cinnamon_ir.Poly_ir.[ ("seq", Seq); ("input broadcast", Input_broadcast); ("cifher", Cifher_broadcast) ]

(* Bad programs fail with a typed Invalid_input that names the culprit,
   not a stray Not_found / Invalid_argument. *)
let test_emulator_typed_errors () =
  let params, _, _, keys, _ = Lazy.force emu_env in
  let rng = Rng.create ~seed:509 in
  let ct = Encrypt.encrypt_real params keys.F.pk (Array.make 64 0.1) rng in
  let rotate5 p = Dsl.output (Dsl.rotate (Dsl.input p "x") 5) "out" in
  let no_key = "Functional.run: no key for rotation 5" in
  List.iter
    (fun (label, algorithm, build, expected) ->
      let prog = Dsl.program build in
      let inputs = Hashtbl.create 1 in
      Hashtbl.add inputs "x" ct;
      let poly = Lower_poly.lower (Compile_config.functional ~chips:4 params) prog in
      let env = F.make_env ~params ~keys ~plaintexts:(Hashtbl.create 1) ~inputs ~poly in
      Array.iter
        (fun (n : Cinnamon_ir.Ct_ir.node) -> Hashtbl.replace env.F.algorithms n.id algorithm)
        prog.nodes;
      match F.run env prog with
      | _ -> Alcotest.failf "%s: ran" label
      | exception Cinnamon_util.Error.Error { kind = Cinnamon_util.Error.Invalid_input; message } ->
        Alcotest.(check string) label expected message)
    Cinnamon_ir.Poly_ir.
      [
        ("missing input", Seq, (fun p -> Dsl.output (Dsl.input p "absent") "out"),
         "Functional.run: no input named \"absent\"");
        ("bootstrap node", Seq, (fun p -> Dsl.output (Dsl.bootstrap (Dsl.input p "x")) "out"),
         "Functional.run: bootstrap nodes are emulated at kernel granularity");
        ("rotation without key", Input_broadcast, rotate5, no_key);
        ("rotation without key, output aggregation", Output_aggregation, rotate5, no_key);
      ]

let suite =
  ( "emulator",
    [
      Alcotest.test_case "functional e2e" `Slow test_emulator_end_to_end;
      Alcotest.test_case "pass algorithms used" `Quick test_emulator_uses_pass_algorithms;
      Alcotest.test_case "add-only program" `Quick test_emulator_add_only_program;
      Alcotest.test_case "emulator = Eval, bitwise" `Quick test_emulator_matches_eval_bitwise;
      Alcotest.test_case "typed errors" `Quick test_emulator_typed_errors;
    ] )
