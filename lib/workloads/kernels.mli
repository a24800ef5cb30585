(** Kernel programs in the Cinnamon DSL at the paper's architectural
    parameters (N = 64K, top level 51): bootstrapping (13/21-level
    variants), model layers (conv, ReLU, HELR iteration, attention,
    GELU, layernorm), and BSGS matvec.  Their rotation/aggregation
    patterns are genuine, so the keyswitch pass discovers the paper's
    patterns organically. *)

type boot_shape = {
  c2s_splits : int;  (** CoeffToSlot factor count *)
  s2c_splits : int;
  diagonals_per_split : int;
  evalmod_degree : int;
  double_angles : int;  (** Han–Ki double-angle steps *)
  input_level : int;
}

(** Refreshing 13 levels (the paper's default). *)
val boot_shape_13 : boot_shape

(** Refreshing 21 levels (deeper EvalMod; Fig. 14). *)
val boot_shape_21 : boot_shape

val bootstrap_program :
  ?shape:boot_shape -> ?parallel:int -> ?progpar:bool -> unit -> Cinnamon_ir.Ct_ir.t

val matvec_program : diagonals:int -> unit -> Cinnamon_ir.Ct_ir.t

(** ResNet-20 3x3 convolution block (9 rotations + channel fold). *)
val conv_block : tag:string -> Cinnamon.Dsl.ct -> Cinnamon.Dsl.ct

(** Degree-27 polynomial ReLU. *)
val relu_block : Cinnamon.Dsl.ct -> tag:string -> Cinnamon.Dsl.ct

(** One HELR iteration: matvec + sigmoid + update. *)
val helr_iteration : tag:string -> Cinnamon.Dsl.ct -> Cinnamon.Dsl.ct

(** BERT attention: QKV projections, scores, softmax (exp poly + NR
    inverse), AV, output projection. *)
val attention_block : tag:string -> Cinnamon.Dsl.ct -> Cinnamon.Dsl.ct

(** Degree-31 tanh-form GELU. *)
val gelu_block : Cinnamon.Dsl.ct -> tag:string -> Cinnamon.Dsl.ct

(** Layernorm: moments by rotate-sum + NR inverse sqrt. *)
val layernorm_block : tag:string -> Cinnamon.Dsl.ct -> Cinnamon.Dsl.ct

(** Standalone transcipher kernel; default 3 rounds = 6 levels. *)
val transcipher_program : ?rounds:int -> unit -> Cinnamon_ir.Ct_ir.t
