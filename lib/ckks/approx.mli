(** Polynomial approximation of non-linear functions: Chebyshev fits
    evaluated with Paterson–Stockmeyer (O(√deg) multiplications, log
    depth, exact scale management), plus Newton–Raphson division and
    inverse square roots — the toolbox behind EvalMod and the paper's
    BERT non-linearities (§6.2). *)

(** Chebyshev coefficients of [f] on [a, b] at degree [deg]. *)
val chebyshev_fit : a:float -> b:float -> deg:int -> (float -> float) -> float array

(** Plaintext Clenshaw evaluation of a Chebyshev series. *)
val chebyshev_eval_plain : a:float -> b:float -> float array -> float -> float

(** Affine map of a ciphertext's value range [a, b] onto [-1, 1]. *)
val normalize : Eval.context -> Ciphertext.t -> a:float -> b:float -> Ciphertext.t

(** Evaluate a Chebyshev series on a ciphertext already normalized to
    [-1, 1]. *)
val chebyshev_eval : Eval.context -> Ciphertext.t -> float array -> Ciphertext.t

(** The tanh-form GELU (plaintext reference). *)
val gelu : float -> float

val eval_gelu : Eval.context -> Ciphertext.t -> range:float -> deg:int -> Ciphertext.t

(** exp on [a, b] — the softmax numerator on max-shifted inputs. *)
val eval_exp : Eval.context -> Ciphertext.t -> a:float -> b:float -> deg:int -> Ciphertext.t

(** Newton–Raphson reciprocal: x ← x(2 − vx), 2 levels per iteration. *)
val eval_inverse : Eval.context -> Ciphertext.t -> init:float -> iters:int -> Ciphertext.t

(** Newton–Raphson inverse sqrt: x ← x(1.5 − 0.5·v·x²), 4 levels per
    iteration. *)
val eval_inv_sqrt : Eval.context -> Ciphertext.t -> init:float -> iters:int -> Ciphertext.t
