(* Tests for the graph front-end (lib/nn): shape inference, cost-model
   split pins, plan packings, lowered-program digests, the matvec
   bit-compatibility refactor, registry coverage, determinism, and
   end-to-end CKKS decryption of all three graph workloads against the
   cleartext reference evaluator. *)

open Cinnamon_nn
open Cinnamon_ckks
open Cinnamon_compiler
open Cinnamon_workloads
module Dsl = Cinnamon.Dsl
module Ct_ir = Cinnamon_ir.Ct_ir
module F = Cinnamon_emulator.Functional
module Rng = Cinnamon_util.Rng
module Stats = Cinnamon_util.Stats

(* --- graph construction and shape inference ------------------------------ *)

let test_shapes () =
  let g = Zoo.bert_encoder () in
  Alcotest.(check int) "input period" 128 (Graph.dim g 0);
  let outs = Graph.outputs g in
  Alcotest.(check int) "one output" 1 (List.length outs);
  Alcotest.(check (list (pair string int))) "inputs" [ ("x", 128) ] (Graph.inputs g);
  (* ff1 widens to d_ff, ff2 brings it back *)
  let has_ff =
    Array.exists
      (fun (n : Graph.node) ->
        match n.Graph.op with Graph.Matmul { rows = 256; _ } -> n.Graph.dim = 256 | _ -> false)
      g.Graph.nodes
  in
  Alcotest.(check bool) "ff widening inferred" true has_ff

let test_shape_errors () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "matmul cols mismatch" true
    (raises (fun () ->
         let b = Graph.create ~name:"bad" in
         let x = Graph.input b ~name:"x" ~dim:16 in
         Graph.matmul b ~w:"w" ~rows:16 ~cols:32 x));
  Alcotest.(check bool) "softmax needs pow2" true
    (raises (fun () ->
         let b = Graph.create ~name:"bad" in
         let x = Graph.input b ~name:"x" ~dim:12 in
         Graph.softmax b ~label:"s" x));
  Alcotest.(check bool) "reshape only widens" true
    (raises (fun () ->
         let b = Graph.create ~name:"bad" in
         let x = Graph.input b ~name:"x" ~dim:16 in
         Graph.reshape b ~dim:24 x));
  Alcotest.(check bool) "duplicate weight names" true
    (raises (fun () ->
         let b = Graph.create ~name:"bad" in
         let x = Graph.input b ~name:"x" ~dim:8 in
         let h = Graph.matmul b ~w:"w" ~rows:8 ~cols:8 x in
         let y = Graph.matmul b ~w:"w" ~rows:8 ~cols:8 h in
         Graph.output b ~name:"out" y;
         Graph.finish b))

(* --- cost model ----------------------------------------------------------- *)

(* The hoisting asymmetry (babies share one decomposition) pushes the
   optimal split above sqrt(D); the exact argmin under the default
   weights is pinned so cost-model drift is loud.  Diagonal count =
   cols, so the tall/wide/square shapes stress different D. *)
let test_split_pins () =
  let pin name d n1 n2 =
    let s = Cost.best_split Cost.default ~diagonals:d in
    Alcotest.(check (pair int int)) name (n1, n2) (s.Cost.n1, s.Cost.n2)
  in
  pin "tall 256x64 (D=64)" 64 13 5;
  pin "square 128x128 (D=128)" 128 16 8;
  pin "wide 64x256 (D=256)" 256 26 10;
  List.iter
    (fun d ->
      let s = Cost.best_split Cost.default ~diagonals:d in
      Alcotest.(check bool)
        (Printf.sprintf "n1 > sqrt(%d)" d)
        true
        (Float.of_int s.Cost.n1 > sqrt (Float.of_int d)))
    [ 64; 128; 256 ]

(* --- plan: packings only ---------------------------------------------------- *)

let matmul_ids (g : Graph.t) =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun (n : Graph.node) ->
         match n.Graph.op with Graph.Matmul _ -> Some n.Graph.id | _ -> None)

let test_plan_packings () =
  List.iter
    (fun g ->
      let plan = Plan.make g in
      Array.iter
        (fun (n : Graph.node) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %%%d has a packing iff matmul" g.Graph.name n.Graph.id)
            (List.mem n.Graph.id (matmul_ids g))
            (Plan.packing_of plan n.Graph.id <> None))
        g.Graph.nodes)
    [ Zoo.mlp3 (); Zoo.resnet_block (); Zoo.bert_encoder () ];
  (* the hand kernels' legacy split: n1 = round(sqrt 10) *)
  let g = Zoo.matvec ~dim:10 () in
  Alcotest.(check bool) "matvec-10 Sqrt_split is diagonal 3x4" true
    (List.map (Plan.packing_of (Plan.make ~policy:Plan.Sqrt_split g)) (matmul_ids g)
    = [ Some (Plan.Diagonal { Cost.n1 = 3; n2 = 4 }) ]);
  let g = Zoo.mlp3 ~classes:8 () in
  let naive = Plan.make ~policy:Plan.Naive_column g in
  List.iter
    (fun id ->
      Alcotest.(check bool) "naive policy packs columns" true
        (Plan.packing_of naive id = Some Plan.Column))
    (matmul_ids g);
  (* non-pow2 shapes must refuse column packing *)
  match Plan.make ~policy:Plan.Naive_column (Zoo.mlp3 ()) with
  | _ -> Alcotest.fail "column packing accepted 10x64"
  | exception Invalid_argument _ -> ()

(* Counts come from the lowered programs: the planned bert-encoder
   spends fewer rotations and keyswitches than its naive-column
   lowering. *)
let test_planner_beats_naive () =
  let g = Zoo.bert_encoder () in
  let lowered policy = Lower.lower ~plan:(Plan.make ~policy g) g in
  let planned = lowered Plan.Cost_optimal and naive = lowered Plan.Naive_column in
  let rot p = (Ct_ir.count_ops p).Ct_ir.n_rotate in
  Alcotest.(check bool)
    (Printf.sprintf "planned %d < naive %d rotations" (rot planned) (rot naive))
    true
    (rot planned < rot naive);
  Alcotest.(check bool)
    (Printf.sprintf "planned %d < naive %d keyswitches" (Ct_ir.keyswitch_count planned)
       (Ct_ir.keyswitch_count naive))
    true
    (Ct_ir.keyswitch_count planned < Ct_ir.keyswitch_count naive)

(* --- lowered-program golden ------------------------------------------------ *)

(* A digest of every lowered Ct_ir node list (op, operands, level,
   stream), so a change to a lowering routine or to bootstrap
   placement is loud.  The graphs are
   the registry ones, the matvec kernels, the naive-column baselines
   and the functional-scale variants the tests and the end-to-end
   inference run. *)
let golden_graphs =
  [
    ("mlp3", Zoo.mlp3 (), Plan.Cost_optimal);
    ("resnet-block", Zoo.resnet_block (), Plan.Cost_optimal);
    ("bert-encoder", Zoo.bert_encoder (), Plan.Cost_optimal);
    ("matvec-10", Zoo.matvec ~dim:10 (), Plan.Sqrt_split);
    ("matvec-24", Zoo.matvec ~dim:24 (), Plan.Sqrt_split);
    ("mlp3-8 column", Zoo.mlp3 ~classes:8 (), Plan.Naive_column);
    ("bert-encoder column", Zoo.bert_encoder (), Plan.Naive_column);
    ( "bert-encoder 16/32",
      Zoo.bert_encoder ~d_model:16 ~d_ff:32 ~exp_deg:2 ~gelu_deg:2 ~iters:1 (),
      Plan.Cost_optimal );
    ("mlp3 16", Zoo.mlp3 ~dim:16 ~classes:8 ~act_deg:2 (), Plan.Cost_optimal);
    ("resnet-block 8x8", Zoo.resnet_block ~height:8 ~width:8 ~fold:4 ~act_deg:2 (), Plan.Cost_optimal);
    ("matvec-8 column", Zoo.matvec ~dim:8 (), Plan.Naive_column);
  ]

let program_digest (prog : Ct_ir.t) =
  Digest.to_hex (Digest.string (Marshal.to_string prog.Ct_ir.nodes [ Marshal.No_sharing ]))

(* Per graph: at Lower's defaults, bootstrap-free
   ([refresh_depth = max_int]), and under a tight budget
   ([top_level = 12, refresh_depth = 3]) where both refresh rules fire
   far more often. *)
let golden_digests =
  [
    ("mlp3", [ "f97cf65bc0af8e695992558589237bea"; "f97cf65bc0af8e695992558589237bea"; "c47fe5778c73113236698ab41b60afac" ]);
    ("resnet-block", [ "3410e6fe685e1ad22c2a70e1dce11819"; "3410e6fe685e1ad22c2a70e1dce11819"; "6fe46884028abb7413468d6d92f0c04e" ]);
    ("bert-encoder", [ "a7c9ab200826aebb8323c7d53ec1b322"; "921163fa3f699df06bc4ab1cfbfaa761"; "0d0c070150cd8ca481bd1bd809bf0942" ]);
    ("matvec-10", [ "a18a2d4d36f5c7ad4f823102f53ac4fc"; "a18a2d4d36f5c7ad4f823102f53ac4fc"; "cfa99404735f3c18458840941497be9e" ]);
    ("matvec-24", [ "b89c8a454ff87d616781054e5ff2d176"; "b89c8a454ff87d616781054e5ff2d176"; "a51aeb59dca3958bc79334153f07e3a8" ]);
    ("mlp3-8 column", [ "f772b3f5a531283daf6ad6561cf36561"; "f772b3f5a531283daf6ad6561cf36561"; "8ad86c6e3b8d21ed5aff51b7c5758230" ]);
    ("bert-encoder column", [ "c70878c21842315e64ed33128c4a6d38"; "6c87bb146e001e43ff437e4c848f9ecb"; "9762a8f818f2e44ad443942e97a3ead6" ]);
    ("bert-encoder 16/32", [ "138f0d408c8c1cf79efcc2c339a3d29c"; "cc7e818fb0743b5d3d3fd09cb35555c3"; "21a557135d6d67de042dfb300c404552" ]);
    ("mlp3 16", [ "7a8d92347f1c95174bc43178ff76ba5a"; "7a8d92347f1c95174bc43178ff76ba5a"; "22a3fa46f3dba6f1d838f874b4842dd8" ]);
    ("resnet-block 8x8", [ "f0dcbb6a4ea421e850e1674709122937"; "f0dcbb6a4ea421e850e1674709122937"; "d7e03714c61fe4d0a14658649cdb6669" ]);
    ("matvec-8 column", [ "7e7b4f3ef03b50f1af99d8f6634975ef"; "7e7b4f3ef03b50f1af99d8f6634975ef"; "358db23b4efe3dfae7cbd925946036e6" ]);
  ]

let test_lowered_golden () =
  List.iter
    (fun (name, g, policy) ->
      let plan = Plan.make ~policy g in
      let got =
        List.map
          (fun (top_level, refresh_depth) ->
            program_digest (Lower.lower ?top_level ?refresh_depth ~plan g))
          [ (None, None); (None, Some max_int); (Some 12, Some 3) ]
      in
      Alcotest.(check (list string)) (name ^ " lowered program") (List.assoc name golden_digests) got)
    golden_graphs

(* --- matvec refactor: byte-identical to the hand-rolled kernel ------------ *)

let test_matvec_bit_identical () =
  List.iter
    (fun d ->
      let via_graph = Specs.kernel_program (Specs.K_matvec d) in
      let hand =
        Dsl.program (fun p ->
            let v = Dsl.input p "v" in
            Dsl.output (Dsl.bsgs_matvec v ~diagonals:d ~name:"m") "out")
      in
      Alcotest.(check bool) (Printf.sprintf "matvec-%d identical IR" d) true (via_graph = hand))
    [ 4; 10; 16; 24 ]

(* --- registries ----------------------------------------------------------- *)

let test_registry () =
  List.iter
    (fun n ->
      match Specs.find_kernel n with
      | Ok (Specs.K_graph g) -> Alcotest.(check string) "name round-trips" n g.Graph.name
      | Ok _ -> Alcotest.fail (n ^ ": wrong kernel kind")
      | Error e -> Alcotest.fail e)
    [ "mlp3"; "resnet-block"; "bert-encoder" ];
  (match Specs.find_kernel "bert-encodr" with
  | Ok _ -> Alcotest.fail "typo should not resolve"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      ("suggests bert-encoder: " ^ msg)
      true
      (contains msg "did you mean \"bert-encoder\""));
  match Specs.find_benchmark "bert-encoder" with
  | Ok b -> Alcotest.(check int) "benchmark wraps the kernel" 1 (List.length b.Specs.segments)
  | Error e -> Alcotest.fail e

(* --- determinism ---------------------------------------------------------- *)

let test_lowering_deterministic () =
  let g = Zoo.bert_encoder () in
  let p1 = Lower.lower g and p2 = Lower.lower g in
  Alcotest.(check bool) "lowering is a pure function" true (p1 = p2)

let test_sweep_jobs_deterministic () =
  let module Cache = Cinnamon_exec.Result_cache in
  let b = Graph.create ~name:"nn-mini" in
  let x = Graph.input b ~name:"x" ~dim:8 in
  let h = Graph.act b ~label:"a" ~coeffs:[| 0.1; 0.5; 0.4 |] (Graph.matmul b ~w:"w" ~rows:8 ~cols:8 x) in
  Graph.output b ~name:"out" h;
  let mini =
    {
      Specs.bench_name = "nn-mini";
      segments = [ Specs.seg (Specs.K_graph (Graph.finish b)) ];
      paper_times = [];
    }
  in
  let pairs = [ (Runner.cinnamon_4, mini) ] in
  let cycles_of jobs =
    Cache.clear_memory ();
    let sw = Runner.run_sweep ~jobs pairs in
    List.map
      (fun (k : Runner.kernel_time) ->
        (k.Runner.kt_kernel, k.Runner.kt_result.Cinnamon_sim.Simulator.cycles))
      sw.Runner.sw_kernels
  in
  let k1 = cycles_of 1 and k4 = cycles_of 4 in
  Alcotest.(check bool) "cycles identical across jobs" true (k1 = k4 && k1 <> [])

(* --- end-to-end: decrypt-match the reference evaluator -------------------- *)

let run_functional_planned ?(seed = 1234) ~params ~slots g plan =
  (* bootstrap-free lowering: the functional emulator executes
     bootstraps at kernel granularity only *)
  let prog = Lower.lower ~refresh_depth:max_int ~plan g in
  let cfg = Compile_config.functional ~chips:4 params in
  let poly = Lower_poly.lower cfg prog in
  let (_ : Keyswitch_pass.report) = Keyswitch_pass.run cfg poly in
  let rng = Rng.create ~seed in
  let keys = F.gen_keys params ~chips:4 ~rotations:(F.rotations_of prog) rng in
  let binding = Binding.random ~seed:(seed + 1) g in
  let in_rng = Rng.create ~seed:(seed + 2) in
  let logical =
    List.map
      (fun (name, dim) ->
        (name, Array.init dim (fun _ -> 0.4 *. ((2.0 *. Rng.float in_rng) -. 1.0))))
      (Graph.inputs g)
  in
  let inputs = Hashtbl.create 4 in
  List.iter2
    (fun (name, dim) (_, x) ->
      let replicated = Array.init slots (fun s -> x.(s mod dim)) in
      Hashtbl.add inputs name (Encrypt.encrypt_real params keys.F.pk replicated rng))
    (Graph.inputs g) logical;
  let plaintexts = Binding.plaintexts binding g plan ~slots in
  let env = F.make_env ~params ~keys ~plaintexts ~inputs ~poly in
  let outputs = F.run env prog in
  let expected = Binding.reference binding g ~slots ~inputs:logical in
  List.iter
    (fun (name, ct) ->
      let got = Encrypt.decrypt_real params keys.F.sk ct in
      let want = List.assoc name expected in
      let err = Stats.max_abs_error ~expected:want ~actual:(Array.sub got 0 slots) in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s decrypt error %.2e" g.Graph.name name err)
        true (err < 5e-2))
    outputs

let run_functional ?seed ~params ~slots g =
  run_functional_planned ?seed ~params ~slots g (Plan.make g)

let mid_params = lazy (Params.make ~slots:64 ~log_n:10 ~levels:12 ~dnum:3 ())
(* The deep bert chain rescales ~36 times; at log_n 10 the scale primes
   sit ~5e-4 off 2^26, and the accumulated scale drift would trip
   Eval.align's 2% slack.  Wider scale primes sit relatively closer to
   the scale (~1.5e-4 at 2^28), keeping the drift inside the slack. *)
let deep_params = lazy (Params.make ~slots:64 ~log_n:10 ~scale_bits:28 ~levels:38 ~dnum:4 ())

let test_mlp3_decrypts () =
  run_functional ~params:(Lazy.force mid_params) ~slots:64
    (Zoo.mlp3 ~dim:16 ~classes:8 ~act_deg:2 ())

let test_resnet_decrypts () =
  run_functional ~params:(Lazy.force mid_params) ~slots:64
    (Zoo.resnet_block ~height:8 ~width:8 ~fold:4 ~act_deg:2 ())

let test_bert_decrypts () =
  run_functional ~params:(Lazy.force deep_params) ~slots:64
    (Zoo.bert_encoder ~d_model:16 ~d_ff:32 ~exp_deg:2 ~gelu_deg:2 ~iters:1 ())

let test_column_packing_decrypts () =
  let g = Zoo.matvec ~dim:8 () in
  run_functional_planned ~params:(Lazy.force mid_params) ~slots:64 g
    (Plan.make ~policy:Plan.Naive_column g)

let suite =
  ( "nn",
    [
      Alcotest.test_case "graph shapes" `Quick test_shapes;
      Alcotest.test_case "shape errors" `Quick test_shape_errors;
      Alcotest.test_case "BSGS split pins" `Quick test_split_pins;
      Alcotest.test_case "plan picks packings" `Quick test_plan_packings;
      Alcotest.test_case "planner beats naive packing" `Quick test_planner_beats_naive;
      Alcotest.test_case "lowered programs golden" `Quick test_lowered_golden;
      Alcotest.test_case "matvec bit-identical" `Quick test_matvec_bit_identical;
      Alcotest.test_case "registry + did-you-mean" `Quick test_registry;
      Alcotest.test_case "lowering deterministic" `Quick test_lowering_deterministic;
      Alcotest.test_case "sweep jobs determinism" `Slow test_sweep_jobs_deterministic;
      Alcotest.test_case "mlp3 decrypts" `Slow test_mlp3_decrypts;
      Alcotest.test_case "resnet block decrypts" `Slow test_resnet_decrypts;
      Alcotest.test_case "bert encoder decrypts" `Slow test_bert_decrypts;
      Alcotest.test_case "column packing decrypts" `Slow test_column_packing_decrypts;
    ] )
