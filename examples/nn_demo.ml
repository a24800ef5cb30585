(* Graph front-end demo: build a small MLP as a dataflow graph, let
   the packing optimizer pick per-layer packings and BSGS splits, lower
   it to ciphertext IR, compile it for a 4-chip Cinnamon system, and
   run it on real encrypted data against the plaintext reference.

   Run with:  dune exec examples/nn_demo.exe *)

open Cinnamon_nn
open Cinnamon_ckks
open Cinnamon_compiler
module F = Cinnamon_emulator.Functional
module Rng = Cinnamon_util.Rng

let () =
  (* 1. Describe the network as a typed dataflow graph.  Dimensions are
     logical vector widths; the builder infers every node's width and
     rejects mismatches at construction time. *)
  let b = Graph.create ~name:"demo-mlp" in
  let x = Graph.input b ~name:"x" ~dim:16 in
  let h1 = Graph.act b ~label:"relu1" ~coeffs:(Zoo.act_coeffs 2)
      (Graph.matmul b ~w:"w1" ~rows:16 ~cols:16 x) in
  let h2 = Graph.act b ~label:"relu2" ~coeffs:(Zoo.act_coeffs 2)
      (Graph.matmul b ~w:"w2" ~rows:16 ~cols:16 h1) in
  let y = Graph.matmul b ~w:"w3" ~rows:8 ~cols:16 h2 in
  Graph.output b ~name:"logits" y;
  let g = Graph.finish b in
  Format.printf "graph:@.%a@." Graph.pp g;

  (* 2. Plan: the cost model prices diagonal (BSGS) packing against
     naive column packing per matrix shape and picks the split. *)
  let plan = Plan.make g in
  Format.printf "%a@." Plan.pp plan;

  (* 3. Lower to ciphertext IR and compile for 4 chips.  The op counts
     are those of the lowered programs, planned and naive. *)
  let prog = Lower.lower ~plan g in
  let naive = Lower.lower ~plan:(Plan.make ~policy:Plan.Naive_column g) g in
  let rotations p = (Cinnamon_ir.Ct_ir.count_ops p).Cinnamon_ir.Ct_ir.n_rotate in
  Format.printf "planned %d rotations vs %d naive-column (%.1fx)@." (rotations prog)
    (rotations naive)
    (Float.of_int (rotations naive) /. Float.of_int (max 1 (rotations prog)));
  let r = Pipeline.compile (Compile_config.paper ~chips:4 ()) prog in
  Format.printf "compiled: %s@." (Pipeline.summary r);

  (* 4. Execute on encrypted data with the functional emulator and
     compare against the cleartext reference evaluator. *)
  let params = Params.make ~slots:64 ~log_n:10 ~levels:12 ~dnum:3 () in
  let slots = 64 in
  let fprog = Lower.lower ~refresh_depth:max_int ~plan g in
  let cfg = Compile_config.functional ~chips:4 params in
  let poly = Lower_poly.lower cfg fprog in
  let (_ : Keyswitch_pass.report) = Keyswitch_pass.run cfg poly in
  let rng = Rng.create ~seed:7 in
  let keys = F.gen_keys params ~chips:4 ~rotations:(F.rotations_of fprog) rng in
  let binding = Binding.random ~seed:8 g in
  let xv = Array.init 16 (fun i -> 0.3 *. sin (Float.of_int i)) in
  let inputs = Hashtbl.create 4 in
  Hashtbl.add inputs "x"
    (Encrypt.encrypt_real params keys.F.pk (Array.init slots (fun s -> xv.(s mod 16))) rng);
  let plaintexts = Binding.plaintexts binding g plan ~slots in
  let env = F.make_env ~params ~keys ~plaintexts ~inputs ~poly in
  let outputs = F.run env fprog in
  let expect = List.assoc "logits" (Binding.reference binding g ~slots ~inputs:[ ("x", xv) ]) in
  let got = Encrypt.decrypt_real params keys.F.sk (List.assoc "logits" outputs) in
  let err =
    Cinnamon_util.Stats.max_abs_error ~expected:expect ~actual:(Array.sub got 0 slots)
  in
  Printf.printf "max error vs reference: %.2e\n" err;
  if err < 5e-2 then print_endline "OK" else failwith "nn_demo: error too large"
