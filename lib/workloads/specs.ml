(* Benchmark descriptions (paper §6.2).

   Each benchmark is a sequence of segments; a segment names a kernel
   program, how many independent instances of it run (the available
   program-level parallelism), and how many times the segment repeats
   sequentially.  The simulator's composer cycle-simulates each kernel
   once per hardware configuration and combines:

     segment time = repeats * ceil(instances / concurrent streams)
                    * kernel time

   which is exact for a deterministic in-order machine, conservatively
   ignoring inter-kernel pipeline overlap (see DESIGN.md).

   Instance and bootstrap counts follow the paper: ResNet-20 is a
   single-ciphertext program with ~50 bootstraps; a 128-token BERT-Base
   inference needs 3 ciphertexts per activation tensor, ~1,400
   bootstraps, 6-wide attention streams and 12-wide GELU streams
   covering ~85% of the program. *)

type kernel =
  | K_bootstrap of Kernels.boot_shape
  | K_matvec of int (* diagonals *)
  | K_conv
  | K_relu
  | K_helr_iter
  | K_attention
  | K_gelu
  | K_layernorm
  | K_graph of Cinnamon_nn.Graph.t
      (* a graph-front-end workload, lowered through the packing
         optimizer (lib/nn); the graph's name is the kernel name *)
  | K_transcipher of int
      (* HHEML-style symmetric-to-CKKS conversion circuit with this
         many HERA-style rounds; runs as the per-tenant ingress ahead
         of an inference request *)

type segment = {
  kernel : kernel;
  instances : int; (* independent parallel instances (ciphertexts) *)
  repeats : int; (* sequential repetitions *)
}

type benchmark = {
  bench_name : string;
  segments : segment list;
  (* paper-reported reference times, for EXPERIMENTS.md comparisons *)
  paper_times : (string * float) list; (* config name -> seconds *)
}

let seg ?(instances = 1) ?(repeats = 1) kernel = { kernel; instances; repeats }

(* --- Bootstrapping: one ciphertext, l=2 -> 51, refreshing 13 levels. --- *)
let bootstrap_13 =
  {
    bench_name = "Bootstrap";
    segments = [ seg (K_bootstrap Kernels.boot_shape_13) ];
    paper_times =
      [
        ("Cinnamon-M", 1.87e-3);
        ("Cinnamon-4", 1.98e-3);
        ("Cinnamon-8", 1.71e-3);
        ("Cinnamon-12", 1.63e-3);
        ("CraterLake", 6.33e-3);
        ("CiFHER", 5.58e-3);
        ("ARK", 3.5e-3);
        ("CPU", 33.0);
      ];
  }

let bootstrap_21 =
  {
    bench_name = "Bootstrap-21";
    segments = [ seg (K_bootstrap Kernels.boot_shape_21) ];
    paper_times = [];
  }

(* --- ResNet-20 on one CIFAR-10 image: 19 conv blocks + ReLUs, ~50
   bootstraps, single ciphertext (no program-level parallelism). --- *)
let resnet20 =
  {
    bench_name = "ResNet";
    segments =
      [
        seg ~repeats:19 K_conv;
        seg ~repeats:19 K_relu;
        seg ~repeats:50 (K_bootstrap Kernels.boot_shape_13);
        seg (K_matvec 10) (* final FC layer *);
      ];
    paper_times =
      [
        ("Cinnamon-M", 105.94e-3);
        ("Cinnamon-4", 94.52e-3);
        ("Cinnamon-8", 73.85e-3);
        ("Cinnamon-12", 70.57e-3);
        ("CraterLake", 321.26e-3);
        ("CiFHER", 189e-3);
        ("ARK", 125e-3);
        ("CPU", 17.5 *. 60.0);
      ];
  }


(* --- HELR: 30 training iterations, minibatch 256 on MNIST; two
   ciphertexts of parallelism (weights + data pipeline), ~20
   bootstraps. --- *)
let helr =
  {
    bench_name = "HELR";
    segments =
      [
        seg ~repeats:30 ~instances:2 K_helr_iter;
        seg ~repeats:20 ~instances:2 (K_bootstrap Kernels.boot_shape_13);
      ];
    paper_times =
      [
        ("Cinnamon-M", 73.20e-3);
        ("Cinnamon-4", 87.61e-3);
        ("Cinnamon-8", 68.74e-3);
        ("Cinnamon-12", 48.76e-3);
        ("CraterLake", 121.91e-3);
        ("CiFHER", 106.88e-3);
        ("CPU", 14.9 *. 60.0);
      ];
  }

(* --- BERT-Base, 128-token input: 12 layers; attention exposes 6
   parallel ciphertexts, GELU 12; ~1,400 bootstraps dominate. --- *)
let bert =
  {
    bench_name = "BERT";
    segments =
      [
        (* per layer: attention on 6 parallel cts, 2 layernorms,
           GELU on 12 parallel cts; bootstraps spread through *)
        seg ~repeats:12 ~instances:6 K_attention;
        seg ~repeats:24 ~instances:3 K_layernorm;
        seg ~repeats:12 ~instances:12 K_gelu;
        seg ~repeats:117 ~instances:12 (K_bootstrap Kernels.boot_shape_13);
        (* 117*12 = 1404 bootstraps, 12-wide *)
      ];
    paper_times =
      [
        ("Cinnamon-M", 3.83);
        ("Cinnamon-4", 3.83);
        ("Cinnamon-8", 2.07);
        ("Cinnamon-12", 1.67);
        ("CPU", 1037.5 *. 60.0);
      ];
  }

let all = [ bootstrap_13; resnet20; helr; bert ]

(* --- graph-front-end workloads (lib/nn): lowered through the packing
   optimizer instead of hand-written IR.  Registered both as kernels
   (CLI compile/simulate, --verify) and as single-segment benchmarks
   (bench sweeps, serving and fleet load classes). --- *)

let graph_kernels =
  [
    ("mlp3", K_graph (Cinnamon_nn.Zoo.mlp3 ()));
    ("resnet-block", K_graph (Cinnamon_nn.Zoo.resnet_block ()));
    ("bert-encoder", K_graph (Cinnamon_nn.Zoo.bert_encoder ()));
  ]

let graph_benchmarks =
  List.map
    (fun (name, k) ->
      (name, { bench_name = name; segments = [ seg k ]; paper_times = [] }))
    graph_kernels

(* A one-input, one-output program around a layer block. *)
let block_program input block =
  Cinnamon.Dsl.program (fun p -> Cinnamon.Dsl.output (block (Cinnamon.Dsl.input p input)) "out")

(* Build the ct-IR program of one kernel instance. *)
let kernel_program = function
  | K_bootstrap shape -> Kernels.bootstrap_program ~shape ()
  | K_matvec d -> Kernels.matvec_program ~diagonals:d ()
  | K_conv -> block_program "x" (Kernels.conv_block ~tag:"conv")
  | K_relu -> block_program "x" (Kernels.relu_block ~tag:"relu")
  | K_helr_iter -> block_program "w" (Kernels.helr_iteration ~tag:"helr")
  | K_attention -> block_program "x" (Kernels.attention_block ~tag:"attn")
  | K_gelu -> block_program "x" (Kernels.gelu_block ~tag:"gelu")
  | K_layernorm -> block_program "x" (Kernels.layernorm_block ~tag:"ln")
  | K_graph g -> Cinnamon_nn.Lower.lower g
  | K_transcipher rounds -> Kernels.transcipher_program ~rounds ()

let kernel_name = function
  | K_bootstrap s -> if s.Kernels.evalmod_degree > 63 then "bootstrap-21" else "bootstrap-13"
  | K_matvec d -> Printf.sprintf "matvec-%d" d
  | K_conv -> "conv"
  | K_relu -> "relu"
  | K_helr_iter -> "helr-iter"
  | K_attention -> "attention"
  | K_gelu -> "gelu"
  | K_layernorm -> "layernorm"
  | K_graph g -> g.Cinnamon_nn.Graph.name
  | K_transcipher _ -> "transcipher"

(* ------------------------------------------------------------ registries

   The single name → artifact mapping every entry point (CLI, bench
   harness, tests) dispatches through (Cinnamon_util.Registry provides
   the shared lookup-or-list-known-names behaviour).  [find_kernel]
   additionally accepts the parametric "matvec-<n>" family and the
   "bootstrap" shorthand. *)

module Registry = Cinnamon_util.Registry

let kernel_registry =
  Registry.make ~what:"kernel" ~extra:[ "matvec-<n>" ]
    ([
      ("bootstrap-13", K_bootstrap Kernels.boot_shape_13);
      ("bootstrap-21", K_bootstrap Kernels.boot_shape_21);
      ("attention", K_attention);
      ("gelu", K_gelu);
      ("layernorm", K_layernorm);
      ("conv", K_conv);
      ("relu", K_relu);
      ("helr-iter", K_helr_iter);
      ("matvec-10", K_matvec 10);
      ("transcipher", K_transcipher 3);
    ]
    @ graph_kernels)

let kernels = Registry.entries kernel_registry

let find_kernel name =
  match name with
  | "bootstrap" -> Ok (K_bootstrap Kernels.boot_shape_13)
  | s when String.length s > 7 && String.sub s 0 7 = "matvec-" -> (
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some d when d > 0 -> Ok (K_matvec d)
    | _ -> Error (Printf.sprintf "bad diagonal count in %S (want matvec-<n>, n > 0)" s))
  | s -> Registry.find kernel_registry s

(* The transciphering ingress as a benchmark: a single-segment entry so
   the serving layers can calibrate it like any inference class and
   price it into per-request SLO numbers. *)
let transcipher_bench =
  { bench_name = "transcipher"; segments = [ seg (K_transcipher 3) ]; paper_times = [] }

let benchmark_registry =
  Registry.make ~what:"benchmark"
    ([
      ("bootstrap", bootstrap_13);
      ("bootstrap-21", bootstrap_21);
      ("resnet", resnet20);
      ("helr", helr);
      ("bert", bert);
      ("transcipher", transcipher_bench);
    ]
    @ graph_benchmarks)

let benchmarks = Registry.entries benchmark_registry
let find_benchmark name = Registry.find benchmark_registry name
