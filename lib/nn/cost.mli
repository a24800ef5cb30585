(** Packing cost model: relative costs of the FHE operations a lowered
    layer spends, in keyswitch-equivalent units (one full rotation
    keyswitch = 1.0).

    The asymmetry that drives the BSGS split choice: the baby rotations
    of a diagonal matvec all rotate {e one} ciphertext, so they share a
    single decomposition (hoisting, [Eval.rotate_many]) and
    each extra baby costs only the key-MAC + mod-down share, while each
    giant step rotates a {e different} group sum and pays a full
    keyswitch.  The optimal split therefore leans n1 > sqrt(D).

    The weights are fixed ratios measured once by the kernel
    microbench suite. *)

type weights = {
  w_rotate : float;  (** full rotation keyswitch (= 1.0 by definition) *)
  w_rotate_hoisted : float;
      (** marginal rotation inside a hoisted batch (shared decomposition) *)
  w_pmult : float;  (** plaintext multiplication (raw or rescaling) *)
  w_add : float;  (** ciphertext addition *)
  w_level : float;  (** pressure per multiplicative level consumed *)
}

val default : weights

type split = { n1 : int; n2 : int  (** n1 babies x n2 giants, n1*n2 >= diagonals *) }

(** Cost of a diagonal-packed BSGS matvec with [diagonals] extended
    diagonals split as [n1] babies: the babies are one hoisted batch
    (the first pays a full keyswitch, the rest the marginal hoisted
    rate), each giant a full keyswitch. *)
val bsgs_units : weights -> diagonals:int -> n1:int -> float

(** Cost of the naive column packing of an [rows x cols] matmul: one
    masked rotate-and-sum inner product per output row (no hoisting,
    two levels). *)
val column_units : weights -> rows:int -> cols:int -> float

(** Argmin of {!bsgs_units} over n1 (ties to the smaller n1). *)
val best_split : weights -> diagonals:int -> split
