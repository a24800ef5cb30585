(** Complex arithmetic and power-of-two FFT used by CKKS encoding. *)

type t = { re : float; im : float }

val zero : t
val one : t
val make : float -> float -> t
val re : t -> float
val im : t -> float
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val conj : t -> t
val scale : float -> t -> t

(** Magnitude. *)
val abs : t -> float

val div : t -> t -> t

(** [polar theta] is e{^ iθ}. *)
val polar : float -> t

val pp : Format.formatter -> t -> unit

(** Forward DFT (allocating). *)
val fft : t array -> t array

(** Inverse DFT including the 1/n normalization (allocating). *)
val ifft : t array -> t array

(** Quadratic-time DFT, kept as a test oracle. *)
val dft_naive : t array -> t array
