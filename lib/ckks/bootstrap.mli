(** CKKS bootstrapping: refresh an exhausted ciphertext's
    multiplicative budget (Cheon et al. '18 / Han–Ki '19 structure).

    Pipeline: ModRaise → SubSum → CoeffToSlot → EvalMod (scaled-sine
    Chebyshev) → SlotToCoeff.  See the module implementation header for
    the per-stage math and DESIGN.md for parameter-regime notes. *)

type config = {
  slots : int;
  k_range : float;  (** EvalMod half-width K' in units of q0 *)
  sin_degree : int;  (** Chebyshev degree of the scaled sine *)
}

(** 8 slots, K' = 6, a degree-48 sine. *)
val default_config : unit -> config

(** The C2S / S2C linear maps for a given ring and slot count: the
    subring embedding matrix E and its normalized inverses (exposed for
    tests). *)
type matrices = {
  m_fwd : Cinnamon_util.Cplx.t array array;
  m1 : Cinnamon_util.Cplx.t array array;
  m2 : Cinnamon_util.Cplx.t array array;
}

val matrices : n:int -> slots:int -> matrices

(** Every rotation amount the pipeline needs (for eval-key planning). *)
val required_rotations : Params.t -> slots:int -> int list

(** Stage 1: reinterpret the level-0 residues over the full chain; the
    plaintext becomes m + q0·I with |I| bounded by the sparse secret. *)
val mod_raise : Params.t -> Ciphertext.t -> Ciphertext.t

(** Stage 2: project onto the X{^g} subring by log₂(g) rotate-and-adds. *)
val sub_sum : Eval.context -> config -> Ciphertext.t -> Ciphertext.t

(** Stage 3: coefficients into slots; returns (real-half, imag-half). *)
val coeff_to_slot : Eval.context -> config -> Ciphertext.t -> Ciphertext.t * Ciphertext.t

(** Stage 4: approximate t mod q0 by (q0/2π)·sin(2πt/q0). *)
val eval_mod : Eval.context -> config -> Params.t -> Ciphertext.t -> Ciphertext.t

(** Stage 5: recombine a' + i·b' and return slots to coefficients. *)
val slot_to_coeff : Eval.context -> config -> Ciphertext.t * Ciphertext.t -> Ciphertext.t

(** The full refresh. The input must carry [config.slots] slots. *)
val bootstrap : Eval.context -> config -> Params.t -> Ciphertext.t -> Ciphertext.t
