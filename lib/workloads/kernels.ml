(* Kernel programs written in the Cinnamon DSL.

   These are the building blocks of the paper's benchmarks, generated
   at the architectural parameters (N = 64K, top level 51).  Their
   rotation/aggregation patterns are genuine — BSGS matmuls and
   Paterson–Stockmeyer towers built by the same algorithms as the
   functional library — so the keyswitch pass discovers the paper's
   patterns organically rather than being told about them. *)

open Cinnamon

(* --- bootstrapping kernel (paper §6.2 Bootstrapping) --------------------- *)

type boot_shape = {
  c2s_splits : int; (* CoeffToSlot is factorized into this many matmuls *)
  s2c_splits : int;
  diagonals_per_split : int; (* non-empty diagonals of each factor *)
  evalmod_degree : int; (* Chebyshev degree of the scaled sine *)
  double_angles : int; (* Han–Ki double-angle steps after the base sine *)
  input_level : int; (* level of the exhausted input ciphertext *)
}

(* The standard full-slot CKKS bootstrap at N = 64K: a 3-way FFT-like
   factorization of CoeffToSlot/SlotToCoeff with 2^5 diagonals each,
   and a degree-63 sine with two double-angle steps.  Refreshing more
   levels (Bootstrap-21) deepens EvalMod. *)
let boot_shape_13 =
  {
    c2s_splits = 3;
    s2c_splits = 3;
    diagonals_per_split = 32;
    evalmod_degree = 63;
    double_angles = 2;
    input_level = 2;
  }

let boot_shape_21 =
  {
    boot_shape_13 with
    evalmod_degree = 127;
    double_angles = 3;
  }

(* Emit one bootstrap into an existing program; returns the refreshed
   value.  [tag] namespaces the plaintext operands. *)
let emit_bootstrap ?(progpar = false) p shape ~tag v =
  (* ModRaise is free (reinterpretation); C2S factors: *)
  let x = ref v in
  for s = 0 to shape.c2s_splits - 1 do
    x := Dsl.bsgs_matvec !x ~diagonals:shape.diagonals_per_split
           ~name:(Printf.sprintf "%s.c2s%d" tag s)
  done;
  (* conjugate pair extraction for the real/imag halves *)
  let conj = Dsl.conjugate !x in
  let ct_a = Dsl.add !x conj in
  let ct_b = Dsl.sub !x conj in
  (* EvalMod on both halves *)
  let em v i =
    let base =
      Dsl.poly_eval (Dsl.mul_const v 1.0) ~deg:shape.evalmod_degree
        ~name:(Printf.sprintf "%s.sine%d" tag i)
    in
    (* double-angle steps: sin(2x) = 2 sin x cos x ~ one square + consts *)
    let y = ref base in
    for _ = 1 to shape.double_angles do
      y := Dsl.add_const (Dsl.mul_const (Dsl.square !y) 2.0) (-1.0)
    done;
    !y
  in
  (* program-level parallelism (paper Fig. 13's "+Program parallelism"):
     the two EvalMod halves run as two concurrent streams mapped to two
     chip sub-groups each *)
  let a' = if progpar then Dsl.in_stream p 1 (fun () -> em ct_a 0) else em ct_a 0 in
  let b' = if progpar then Dsl.in_stream p 2 (fun () -> em ct_b 1) else em ct_b 1 in
  let w = Dsl.add a' b' in
  let y = ref w in
  for s = 0 to shape.s2c_splits - 1 do
    y := Dsl.bsgs_matvec !y ~diagonals:shape.diagonals_per_split
           ~name:(Printf.sprintf "%s.s2c%d" tag s)
  done;
  !y

(* Standalone bootstrap benchmark: [parallel] independent ciphertexts
   bootstrapped one after another in IR stream 1. *)
let bootstrap_program ?(shape = boot_shape_13) ?(parallel = 1) ?(progpar = false) () =
  Dsl.program ~top_level:51 ~boot_level:13 (fun p ->
      Dsl.in_stream p 1 (fun () ->
          for i = 0 to parallel - 1 do
            let v = Dsl.input p (Printf.sprintf "ct%d" i) in
            (* all instances share one set of plaintext matrices and
               sine coefficients — the cache-sharing effect behind the
               paper's Fig. 6 *)
            let r = emit_bootstrap ~progpar p shape ~tag:"bs" v in
            Dsl.output r (Printf.sprintf "out%d" i)
          done))

(* --- linear algebra kernels ---------------------------------------------- *)

(* One BSGS matrix-vector product (used standalone for Fig. 13-style
   keyswitch studies and inside the model layers).  Routed through the
   graph front-end's lowering with the legacy sqrt split, so there is
   one matvec-IR construction in the tree; the Sqrt_split policy keeps
   the emitted program — and Table 2's cycle counts — bit-identical to
   the historical hand-rolled version (pinned by test). *)
let matvec_program ~diagonals () =
  let open Cinnamon_nn in
  let g = Zoo.matvec ~dim:diagonals () in
  (* boot_level 13 (the Dsl default) rather than Lower's graph default:
     a matvec never bootstraps, and this keeps the emitted program
     byte-identical to the historical hand-rolled kernel *)
  Lower.lower ~boot_level:13 ~plan:(Plan.make ~policy:Plan.Sqrt_split g) g

(* --- model layer kernels --------------------------------------------------- *)

(* A ResNet-20 convolution block (Lee et al.'21 packing): the 3x3
   kernel positions become 9 rotations of the input, multiplied by
   packed weight plaintexts and accumulated; channel fold-in adds a
   rotate-and-sum over the channel gap. *)
let conv_block ~tag v =
  let taps =
    List.init 9 (fun i ->
        Dsl.mul_plain (Dsl.rotate v (((i mod 3) - 1) + (32 * ((i / 3) - 1)))) (tag ^ ".w" ^ string_of_int i))
  in
  let s = List.fold_left (fun acc t -> Dsl.add acc t) (List.hd taps) (List.tl taps) in
  (* fold partial channel sums *)
  Dsl.sum_slots s ~n:8

(* Degree-27 polynomial ReLU approximation (Lee et al. use composed
   minimax polys; the PS structure is what costs). *)
let relu_block v ~tag = Cinnamon.Dsl.poly_eval v ~deg:27 ~name:(tag ^ ".relu")

(* An HELR iteration: a BSGS matvec over the minibatch, a degree-7
   sigmoid, and the gradient update. *)
let helr_iteration ~tag w =
  let z = Dsl.bsgs_matvec w ~diagonals:16 ~name:(tag ^ ".x") in
  let s = Dsl.poly_eval z ~deg:7 ~name:(tag ^ ".sigmoid") in
  let grad = Dsl.mul_plain s (tag ^ ".xt") in
  Dsl.add w (Dsl.mul_const grad (-0.01))

(* BERT attention block on one head-group ciphertext: Q/K/V
   projections (BSGS), scores QK^T, softmax (exp poly + NR inverse),
   AV, and the output projection. *)
let attention_block ~tag v =
  let q = Dsl.bsgs_matvec v ~diagonals:24 ~name:(tag ^ ".wq") in
  let k = Dsl.bsgs_matvec v ~diagonals:24 ~name:(tag ^ ".wk") in
  let vv = Dsl.bsgs_matvec v ~diagonals:24 ~name:(tag ^ ".wv") in
  let scores = Dsl.mul q k in
  let e = Dsl.poly_eval scores ~deg:15 ~name:(tag ^ ".exp") in
  let denom = Dsl.sum_slots e ~n:128 in
  let inv = Dsl.nr_inverse denom ~iters:3 in
  let soft = Dsl.mul e inv in
  let av = Dsl.mul soft vv in
  Dsl.bsgs_matvec av ~diagonals:24 ~name:(tag ^ ".wo")

(* BERT GELU on one ciphertext (tanh-form approximation, deg 31). *)
let gelu_block v ~tag = Dsl.poly_eval v ~deg:31 ~name:(tag ^ ".gelu")

(* --- transciphering ingress (HHEML-style hybrid HE) --------------------- *)

(* Homomorphic decryption of a symmetric ciphertext: the server holds a
   CKKS encryption of the client's symmetric key and evaluates the
   keystream from it — HERA-style rounds of an affine diffusion layer
   (the state plus two slot rotations), a round-constant addition, and
   a cube S-box (x^3 = x^2 * x: two multiplicative levels per round) —
   then recovers the CKKS plaintext as  encode(sym_ct) - keystream.
   Shallow by design (the whole point of transciphering is that the
   expensive conversion circuit is still far cheaper than shipping
   fresh CKKS ciphertexts), so the default three rounds cost six
   levels and never bootstrap. *)
let transcipher_block ~rounds ~tag k =
  let x = ref k in
  for r = 0 to rounds - 1 do
    (* affine diffusion: mix each slot with two neighbours *)
    let lin = Dsl.add (Dsl.add !x (Dsl.rotate !x 1)) (Dsl.rotate !x 4) in
    let lin = Dsl.add_plain lin (Printf.sprintf "%s.rc%d" tag r) in
    (* cube S-box *)
    x := Dsl.mul (Dsl.square lin) lin
  done;
  let keystream = Dsl.add_plain !x (tag ^ ".rc_final") in
  (* ct = encode(sym_ct) - keystream *)
  Dsl.add_plain (Dsl.mul_const keystream (-1.0)) (tag ^ ".sym_ct")

let transcipher_program ?(rounds = 3) () =
  Dsl.program (fun p ->
      let k = Dsl.input p "sym_key" in
      Dsl.output (transcipher_block ~rounds ~tag:"tc" k) "ct")

(* BERT layernorm: mean/variance by rotate-sum, NR inverse sqrt. *)
let layernorm_block ~tag v =
  let mean = Dsl.mul_const (Dsl.sum_slots v ~n:128) (1.0 /. 128.0) in
  let centered = Dsl.sub v mean in
  let var = Dsl.mul_const (Dsl.sum_slots (Dsl.square centered) ~n:128) (1.0 /. 128.0) in
  let inv_std = Dsl.nr_inv_sqrt var ~iters:3 in
  Dsl.mul_plain (Dsl.mul centered inv_std) (tag ^ ".gamma")
