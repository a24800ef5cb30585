(** Benchmark descriptions (paper §6.2): each benchmark is a sequence
    of segments naming a kernel, its parallel instance count (the
    program-level parallelism), and sequential repeats.  Instance and
    bootstrap counts follow the paper (BERT: 6-wide attention, 12-wide
    GELU, ~1,400 bootstraps; ResNet: one ciphertext, ~50 bootstraps). *)

type kernel =
  | K_bootstrap of Kernels.boot_shape
  | K_matvec of int  (** diagonals *)
  | K_conv
  | K_relu
  | K_helr_iter
  | K_attention
  | K_gelu
  | K_layernorm
  | K_graph of Cinnamon_nn.Graph.t
      (** a graph-front-end workload (lib/nn), lowered through the
          packing optimizer; the graph's name is the kernel name *)
  | K_transcipher of int
      (** HHEML-style symmetric-to-CKKS conversion circuit with this
          many HERA-style rounds (the per-tenant serving ingress) *)

type segment = { kernel : kernel; instances : int; repeats : int }

type benchmark = {
  bench_name : string;
  segments : segment list;
  paper_times : (string * float) list;  (** config name → seconds (paper) *)
}

val seg : ?instances:int -> ?repeats:int -> kernel -> segment
val bootstrap_13 : benchmark
val resnet20 : benchmark
val helr : benchmark
val bert : benchmark

(** Table 2's four benchmarks. *)
val all : benchmark list

(** The graph-front-end workloads (MLP-3, ResNet basic block, BERT
    encoder layer) as kernels, and as single-segment benchmarks; both
    are also folded into the registries below. *)
val graph_kernels : (string * kernel) list

(** Build one kernel instance as ciphertext IR. *)
val kernel_program : kernel -> Cinnamon_ir.Ct_ir.t

val kernel_name : kernel -> string

(** {1 Registries}

    The single name → artifact mapping every entry point (CLI, bench
    harness, tests) dispatches through. *)

(** All named kernels ("matvec-10" stands in for the parametric
    [matvec-<n>] family). *)
val kernels : (string * kernel) list

(** Look a kernel up by name.  Accepts every registry name plus the
    "bootstrap" shorthand and parametric "matvec-<n>"; unknown names
    return an [Error] listing the registry. *)
val find_kernel : string -> (kernel, string) result

(** All named benchmarks. *)
val benchmarks : (string * benchmark) list

val find_benchmark : string -> (benchmark, string) result
