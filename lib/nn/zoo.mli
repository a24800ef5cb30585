(** Graph-built workloads.  Defaults are the registry scale (compiled
    symbolically at the architectural top level); tests instantiate the
    same constructors at functional scale (small dims, shallow
    iterations) to run them under CKKS decryption. *)

(** Power-basis activation coefficients of the given degree (1..3) —
    the smooth stand-ins for ReLU/GELU the workloads use. *)
val act_coeffs : int -> float array

(** A single [dim x dim] matmul — the graph behind the [matvec-<n>]
    kernel family (input ["v"], weight ["m"], output ["out"]). *)
val matvec : ?dim:int -> unit -> Graph.t

(** Three dense layers with pointwise polynomial activations; the last
    layer maps to [classes]. *)
val mlp3 : ?dim:int -> ?classes:int -> ?act_deg:int -> unit -> Graph.t

(** A ResNet basic block: conv-act-conv, residual add, final act, over
    a [height x width] plane with a [fold]-channel rotate-and-sum. *)
val resnet_block : ?height:int -> ?width:int -> ?fold:int -> ?act_deg:int -> unit -> Graph.t

(** One BERT encoder layer: Q/K/V projections, scores, softmax,
    attention-value product, output projection, residual + layernorm,
    feed-forward (d_ff) with GELU, residual + layernorm. *)
val bert_encoder :
  ?d_model:int -> ?d_ff:int -> ?exp_deg:int -> ?gelu_deg:int -> ?iters:int -> unit -> Graph.t
