(** Encrypted matrix-matrix multiplication (Jiang–Kim–Lauter–Song):
    ciphertext-by-ciphertext d×d products on row-major packings — the
    kernel behind encrypted transformer matmuls. *)

(** Slot permutation of the sigma (row-diagonal) alignment. *)
val sigma_perm : int -> int -> int

(** Slot permutation of the tau (column-diagonal) alignment. *)
val tau_perm : int -> int -> int

(** Every rotation amount [mul ~d] needs, for eval-key planning. *)
val required_rotations : d:int -> int list

(** Column shift φ{^k} (two masked rotations). *)
val column_shift : Eval.context -> d:int -> Ciphertext.t -> int -> Ciphertext.t

(** Row shift ψ{^k} (one rotation by k·d). *)
val row_shift : Eval.context -> d:int -> Ciphertext.t -> int -> Ciphertext.t

(** Encrypted C = A·B on row-major d×d packings (3 levels). *)
val mul : Eval.context -> d:int -> Ciphertext.t -> Ciphertext.t -> Ciphertext.t

(** Plaintext row-major reference. *)
val mul_plain_ref : d:int -> float array -> float array -> float array
