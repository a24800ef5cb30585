(** RNS polynomials — elements of Z{_Q}[X]/(X{^N}+1) stored as limbs.

    Limb i is the residue polynomial mod the i-th basis prime. Most
    operations are data parallel across limbs (paper §2); the
    representation domain (Coeff vs Eval/NTT) is tracked and mixing
    domains raises.

    Storage is one contiguous {!Limb_buf} per polynomial with limbs as
    strided views, so kernels hand limb data to each other zero-copy
    and whole-polynomial moves are flat blits. *)

type domain = Coeff | Eval

type t

val n : t -> int
val basis : t -> Basis.t
val domain : t -> domain

(** Number of limbs (the ciphertext "level"). *)
val level : t -> int

(** Zero-copy view of limb [i]'s storage.  Mutating the view mutates
    the polynomial — kernel plumbing only; use {!copy_limb} when a
    snapshot is wanted. *)
val unsafe_limb_view : t -> int -> Limb_buf.t

(** Fresh copy of limb [i] (safe to mutate or keep). *)
val copy_limb : t -> int -> Limb_buf.t

(** All-zero polynomial. *)
val create : n:int -> basis:Basis.t -> domain:domain -> t

val zero : n:int -> basis:Basis.t -> t
val copy : t -> t

(** Fresh all-zero polynomial with the shape (n, basis, domain) of the
    argument — the natural destination for the [_into] operations. *)
val create_like : t -> t

(** Reduce signed coefficients into every limb (boxed-array boundary —
    the only one besides the test oracles). *)
val of_coeffs : basis:Basis.t -> domain:domain -> int array -> t

val add : t -> t -> t
val sub : t -> t -> t

(** Pointwise product; both arguments must be in Eval domain. *)
val mul : t -> t -> t

(** Into-buffer variants: write the result into [dst] (same shape as
    the operands) without allocating.  [dst] may alias either
    operand. *)
val add_into : dst:t -> t -> t -> unit

val sub_into : dst:t -> t -> t -> unit
val mul_into : dst:t -> t -> t -> unit

val neg : t -> t

(** Multiply limb [i] by the signed scalar [s i]. *)
val scalar_mul_per_limb : t -> (int -> int) -> t

val scalar_mul_per_limb_into : dst:t -> t -> (int -> int) -> unit

(** Multiply every limb by the same signed scalar. *)
val scalar_mul : t -> int -> t

val scalar_mul_into : dst:t -> t -> int -> unit

(** Domain conversions (cached NTT plans; no-ops when already there). *)
val to_eval : t -> t

val to_coeff : t -> t

(** Automorphism X ↦ X{^k}, [k] odd. Preserves the input domain.
    Eval-domain inputs use a precomputed slot permutation (no NTTs,
    what the paper's hardware does); Coeff-domain inputs use the
    index/sign-flip form, which doubles as the test oracle.  Both
    paths agree bitwise. *)
val automorphism : t -> k:int -> t

(** Multiply by X{^e} (negacyclic shift). With [e = N/2] this
    multiplies every CKKS slot by i, exactly and for free. *)
val monomial_mul : t -> e:int -> t

(** Drop the top limbs, keeping the first [k] — a zero-copy view
    sharing storage with the argument. *)
val drop_to_level : t -> int -> t

(** Keep only the limbs whose modulus appears in the sub-basis
    (fresh storage). *)
val restrict : t -> Basis.t -> t

(** Concatenate limbs over disjoint bases (fresh storage). *)
val concat : t -> t -> t

(** Uniformly random limbs (used for the `a` part of ciphertexts). *)
val random : n:int -> basis:Basis.t -> domain:domain -> Cinnamon_util.Rng.t -> t

(** Exact CRT reconstruction of coefficient [j] as (magnitude, negative?),
    centered in (-Q/2, Q/2]. Cold path. *)
val coeff_centered : t -> int -> Cinnamon_util.Bigint.t * bool

(** Centered coefficient [j] as a float. *)
val coeff_float : t -> int -> float

(** Structural equality up to representation domain. *)
val equal : t -> t -> bool
