(** The Cinnamon DSL (paper §4.2): FHE operations as language
    constructs over an abstract ciphertext type, with concurrent
    execution streams for program-level parallelism (the paper's
    CinnamonStreamPool), plus the library routines — BSGS matvec,
    Paterson–Stockmeyer evaluation, Newton–Raphson — whose patterns the
    keyswitch pass optimizes.

    Programs built here are ciphertext-level IR; plaintext operands are
    symbolic names.  The compiler (Cinnamon_compiler.Pipeline) lowers
    them to per-chip machine code; the functional emulator
    (Cinnamon_emulator.Functional) runs them on real encrypted data. *)

open Cinnamon_ir

(** A program under construction. *)
type t

(** A ciphertext value inside a program. *)
type ct

(** [program f] runs the builder [f] and returns the finished IR.
    [top_level] is the fresh-ciphertext budget; [boot_level] the budget
    a bootstrap restores. *)
val program : ?top_level:int -> ?boot_level:int -> (t -> unit) -> Ct_ir.t

(** A fresh encrypted input, by name. *)
val input : t -> string -> ct

(** The two-operand ops ({!add}, {!sub}, {!mul}) raise
    [Cinnamon_util.Error.Error] ([Invalid_input]) when their operands
    come from different programs. *)

val add : ct -> ct -> ct
val sub : ct -> ct -> ct

(** Ciphertext product (one level: relinearization + rescale). *)
val mul : ct -> ct -> ct

val square : ct -> ct

(** Product with a named plaintext operand (one level). *)
val mul_plain : ct -> string -> ct

(** Plaintext product without the rescale — lazy rescaling: sum raw
    products, then {!rescale} once. *)
val mul_plain_raw : ct -> string -> ct

(** Explicit rescale (one level), pairs with {!mul_plain_raw}. *)
val rescale : ct -> ct

val add_plain : ct -> string -> ct
val mul_const : ct -> float -> ct
val add_const : ct -> float -> ct

(** Slot rotation (a rotation keyswitch); [rotate v 0] is free. *)
val rotate : ct -> int -> ct

val conjugate : ct -> ct

(** Refresh the multiplicative budget to [boot_level]. *)
val bootstrap : ct -> ct

val output : ct -> string -> unit

(** Remaining multiplicative budget of a value. *)
val budget : ct -> int

(** [stream_pool p ~streams body] runs [body s] for s = 0..streams-1
    with emitted ops annotated as concurrent streams; the compiler
    places each stream on its own chip group.  (Stream id 0 in the IR
    is reserved for default whole-machine work.) *)
val stream_pool : t -> streams:int -> (int -> unit) -> unit

(** Run [f ()] with ops annotated as IR stream [s] (1-based for
    concurrent sections), restoring the default stream after. *)
val in_stream : t -> int -> (unit -> 'a) -> 'a

(** Rotate-and-sum reduction over [n] slots. *)
val sum_slots : ct -> n:int -> ct

(** BSGS diagonal matrix-vector product with [diagonals] diagonals
    named ["name.diagI"].  Baby rotations form an input-broadcast
    batch; giant steps an output-aggregation batch.  [g] overrides the
    baby-step count (default: round(sqrt diagonals)) — the packing
    optimizer (Cinnamon_nn.Plan) picks it from a cost model. *)
val bsgs_matvec : ?g:int -> ct -> diagonals:int -> name:string -> ct

(** Degree-[deg] Paterson–Stockmeyer polynomial with coefficients named
    ["name.cI"] — the structural shape of EvalMod / GELU / sigmoid. *)
val poly_eval : ct -> deg:int -> name:string -> ct

(** Newton–Raphson reciprocal (division): 1 + 3·[iters] levels (the
    initial guess's [mul_const], then two products and a [mul_const]
    per iteration). *)
val nr_inverse : ct -> iters:int -> ct

(** Newton–Raphson inverse square root: 1 + 4·[iters] levels. *)
val nr_inv_sqrt : ct -> iters:int -> ct
