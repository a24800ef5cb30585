(** Lowering: compile a planned {!Graph.t} to a {!Cinnamon_ir.Ct_ir}
    program through the DSL.

    Invariants (see DESIGN.md "Graph front-end"):
    - deterministic: the emitted program is a pure function of
      (graph, plan) — no randomness, no environment;
    - plan-faithful: it reads only the plan's packings and splits;
      every op count of a graph is [Ct_ir.count_ops] of the program
      emitted here (the programs are pinned by digest in the tests);
    - matvec-compatible: diagonal matmuls go through
      [Dsl.bsgs_matvec ?g], so baby rotations form the input-broadcast
      batches the keyswitch pass hoists ([Eval.rotate_many]) and a
      [Sqrt_split] plan reproduces the hand [matvec-<n>] kernels
      byte-identically;
    - plaintext naming: diagonal matmuls bind [w.diagI], column
      matmuls [w.rowI]/[w.maskI], convolutions [w.wT], layernorms
      their gamma name — {!Binding.plaintexts} materializes exactly
      these.

    Bootstraps are placed automatically.  Each node's routine is first
    emitted alone into a throwaway program to measure the ct-ct
    products and levels it spends; when the node would push an
    operand's ciphertext-product depth past [refresh_depth] (default
    12 — where the conservative noise estimate starts compounding;
    see {!Cinnamon_compiler.Noise}) or past the remaining level
    budget, the operand is refreshed first, mirroring how the paper's
    programs interleave bootstraps.  [boot_level] (default 21, the
    Bootstrap-21 shape) is the budget a refresh restores; pass
    [refresh_depth = max_int] for bootstrap-free programs (the
    functional tests, which emulate at kernel granularity). *)

val lower :
  ?top_level:int ->
  ?boot_level:int ->
  ?refresh_depth:int ->
  ?plan:Plan.t ->
  Graph.t ->
  Cinnamon_ir.Ct_ir.t

(** Rotation offsets of the nine 3x3 conv taps over a row-major plane
    of the given width (tap 4, the center, is offset 0). *)
val conv_offsets : int -> int list
