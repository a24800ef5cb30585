(** Deterministic splitmix64 pseudo-random generator.

    Every source of randomness in the library (key generation,
    encryption noise, property-test inputs) is drawn from a [t] so
    that whole runs are reproducible from a single seed. *)

type t

(** [create ~seed] builds a generator from an integer seed. *)
val create : seed:int -> t

(** Uniform non-negative native int over [0, 2{^62}). *)
val next : t -> int

(** [bits t n] returns [n] uniform random bits, [1 <= n <= 62]. *)
val bits : t -> int -> int

(** [int t bound] is uniform over [0, bound), rejection-sampled (no
    modulo bias). Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [0, 1) with 53 bits of precision. *)
val float : t -> float

(** Centered Gaussian with standard deviation [sigma] (Box–Muller). *)
val gaussian : t -> sigma:float -> float

(** Ternary sample in {-1, 0, 1} with P(±1) = 1/4 each. *)
val ternary : t -> int

(** Derive an independent generator (splits the stream). *)
val split : t -> t
