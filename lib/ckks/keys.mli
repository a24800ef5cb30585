(** CKKS key material: ternary secret keys, public keys, and hybrid
    (digit-decomposed) keyswitching keys.

    A switch key for s{_from} → s holds one pair (b{_i}, a{_i}) per
    digit over Q{_L} ∪ P with b{_i} = −a{_i}·s + e{_i} + P·g{_i}·s{_from},
    where g{_i} is the CRT gadget factor of the digit (the paper's
    per-digit scalar of §2). *)

open Cinnamon_rns

type secret_key = {
  sk_coeffs : int array;  (** ternary coefficients (tests/noise analysis) *)
  sk_qp : Rns_poly.t;  (** s over Q{_L} ∪ P, Eval domain *)
}

type public_key = { pk_b : Rns_poly.t; pk_a : Rns_poly.t }

type switch_key = {
  swk_b : Rns_poly.t array;  (** per digit, over Q{_L} ∪ P *)
  swk_a : Rns_poly.t array;
}

type eval_key = private {
  relin : switch_key;  (** s² → s *)
  rotations : (int, switch_key) Cinnamon_util.Memo.t;
      (** canonical slot amount → key; mutex-guarded for on-demand
          generation from concurrent domains *)
  conjugation : switch_key option;
}
(** Private: fields are readable, but sets are built only by
    {!provision} — no hand-assembled or half-provisioned key sets. *)

(** Small Gaussian error polynomial over [basis], Eval domain. *)
val sample_error : Params.t -> basis:Basis.t -> Cinnamon_util.Rng.t -> Rns_poly.t

val gen_secret_key : Params.t -> Cinnamon_util.Rng.t -> secret_key

(** Restrict the secret key to a sub-basis of Q{_L} ∪ P. *)
val sk_over : secret_key -> Basis.t -> Rns_poly.t

val gen_public_key : Params.t -> secret_key -> Cinnamon_util.Rng.t -> public_key

(** Switch key for [s_from] → s ([s_from] over Q{_L} ∪ P, Eval), one
    pair per digit of [digits], each a list of limb indices of Q{_L}
    (default: the standard ranges of [Params.digit_ranges]).  Digits
    need not be contiguous: output-aggregation keyswitching uses the
    round-robin chip partition.  Draws each digit's [a], then its
    error, digit by digit. *)
val gen_switch_key :
  Params.t ->
  secret_key ->
  ?digits:int list list ->
  s_from:Rns_poly.t ->
  Cinnamon_util.Rng.t ->
  switch_key

val gen_relin_key : Params.t -> secret_key -> Cinnamon_util.Rng.t -> switch_key

(** Canonical rotation amount (mod N/2). *)
val canonical_rotation : n:int -> int -> int

(** Galois element 5{^r} mod 2N of a rotation by [r] slots. *)
val galois_of_rotation : n:int -> int -> int

(** Galois element of complex conjugation: 2N − 1. *)
val galois_conjugate : n:int -> int

val gen_rotation_key : Params.t -> secret_key -> rot:int -> Cinnamon_util.Rng.t -> switch_key

(** Deduplicate and canonicalize rotation amounts, dropping zero. *)
val canonicalize_rotations : n:int -> int list -> int list

(** The eval-key smart constructor: relin key, one key per canonical
    rotation amount, and optionally (default: no) a conjugation key, in
    a fixed generation order so a (params, rotations, seed) triple
    always yields the same set. *)
val provision :
  Params.t ->
  ?conjugation:bool ->
  rotations:int list ->
  secret_key ->
  Cinnamon_util.Rng.t ->
  eval_key

(** Raises [Invalid_argument] when no key exists for the amount. *)
val find_rotation_key : eval_key -> int -> switch_key

(** Get-or-generate the key for a rotation amount.  Domain-safe: racing
    callers all receive the single key that won publication.  Raises on
    rotation 0 (which needs no key). *)
val ensure_rotation_key :
  Params.t -> secret_key -> eval_key -> rot:int -> Cinnamon_util.Rng.t -> switch_key
