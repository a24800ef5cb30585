(** CKKS parameter sets.

    Two regimes (see DESIGN.md): {e functional} parameters at small ring
    dimensions for tests and examples (not secure — the standard FHE
    test profile), and the paper's {e architectural} N = 64K
    configuration used symbolically by the compiler and simulator. *)

open Cinnamon_rns

type t = {
  log_n : int;
  n : int;  (** ring dimension, 2{^log_n} *)
  slots : int;  (** default slot count for examples, <= n/2 *)
  q0_bits : int;  (** width of the base prime *)
  scale_bits : int;  (** width of the scale primes; scale = 2{^scale_bits} *)
  levels : int;  (** number of scale primes = max multiplicative depth *)
  dnum : int;  (** keyswitching digit count *)
  alpha : int;  (** limbs per digit = special-prime count *)
  scale : float;
  sigma : float;  (** encryption noise stddev *)
  hamming_weight : int;  (** secret density; 0 = dense ternary *)
  q_basis : Basis.t;  (** q0 followed by the scale primes *)
  p_basis : Basis.t;  (** the special (keyswitching) primes *)
}

(** Build a parameter set, generating NTT-friendly primes.  When
    [q0_bits = scale_bits] (the bootstrapping regime) q0 is drawn from
    the same balanced near-2{^scale_bits} pool as the scale primes. *)
val make :
  ?slots:int ->
  ?q0_bits:int ->
  ?scale_bits:int ->
  ?sigma:float ->
  ?hamming_weight:int ->
  log_n:int ->
  levels:int ->
  dnum:int ->
  unit ->
  t

(** Basis of a ciphertext at level [l]: q0 plus [l] scale primes. *)
val basis_at_level : t -> int -> Basis.t

val top_level : t -> int

(** Q{_L} ∪ P, the keyswitching basis. *)
val qp_basis : t -> Basis.t

(** Limb-index ranges [(lo, hi)] of the keyswitching digits over the
    full chain. *)
val digit_ranges : t -> (int * int) list

(** Functional presets (lazily constructed; prime search is cheap but
    not free). [tiny]: N=64. [small]: N=1024, 64 slots, 8 levels.
    [medium]: N=4096. [large]: the paper's ring dimension N=65536 with
    the deepest 30-bit functional chain (full-tier microbenches).
    [boot]: the bootstrapping profile — deep chain, sparse secret,
    q0 ≈ scale. *)
val tiny : t lazy_t

val small : t lazy_t
val medium : t lazy_t
val large : t lazy_t
val boot : t lazy_t
