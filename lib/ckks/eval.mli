(** Homomorphic evaluation: the CKKS operation set with RNS-CKKS scale
    management. *)

open Cinnamon_rns

type context = { params : Params.t; ek : Keys.eval_key }

val context : Params.t -> Keys.eval_key -> context

(** Level alignment plus a scale-compatibility check (small drift is
    tolerated; bit-exact sums use {!adjust_scale}). *)
val align : Ciphertext.t -> Ciphertext.t -> Ciphertext.t * Ciphertext.t

val add : Ciphertext.t -> Ciphertext.t -> Ciphertext.t
val sub : Ciphertext.t -> Ciphertext.t -> Ciphertext.t
val neg : Ciphertext.t -> Ciphertext.t

(** Add a plaintext vector (encoded at the ciphertext's scale; free). *)
val add_plain : context -> Ciphertext.t -> Cinnamon_util.Cplx.t array -> Ciphertext.t

val add_const : context -> Ciphertext.t -> float -> Ciphertext.t

(** Rescale a ciphertext: one level consumed, scale divided by the
    dropped prime. *)
val rescale : Ciphertext.t -> Ciphertext.t

(** Plaintext product at a chosen encode scale, then rescale;
    [out_scale] overrides the scale bookkeeping for exact management. *)
val mul_plain_at :
  context ->
  Ciphertext.t ->
  Cinnamon_util.Cplx.t array ->
  encode_scale:float ->
  ?out_scale:float ->
  unit ->
  Ciphertext.t

(** Plaintext product at the parameter scale (consumes one level). *)
val mul_plain : context -> Ciphertext.t -> Cinnamon_util.Cplx.t array -> Ciphertext.t

(** Plaintext product without the rescale (scale becomes s·Δ) — for
    lazy rescaling, which sums raw products and rescales once. *)
val mul_plain_raw : context -> Ciphertext.t -> Cinnamon_util.Cplx.t array -> Ciphertext.t

(** Bring a ciphertext to exactly (level, scale) via a constant-1
    multiplication at a chosen encode scale; consumes one level.  The
    EVA/Lattigo scale-management primitive. *)
val adjust_scale : context -> Ciphertext.t -> target_level:int -> target_scale:float -> Ciphertext.t

val mul_const : context -> Ciphertext.t -> float -> Ciphertext.t

(** Integer scaling without a level (values scale, declared scale
    unchanged). *)
val mul_int : Ciphertext.t -> int -> Ciphertext.t

(** Multiply every slot by i exactly (monomial X{^N/2}); free. *)
val mul_by_i : Ciphertext.t -> Ciphertext.t

(** Keyswitch of one polynomial (Eval, over a prefix of Q) back to the
    secret key: (k0, k1) over the same basis.  [mul], [square],
    [rotate] and [conjugate] take one as [?keyswitch] (the functional
    emulator passes the parallel algorithm its compiler pass chose);
    the default is the fused engine under the context's key for the
    op, which is looked up only then. *)
type keyswitch = Rns_poly.t -> Rns_poly.t * Rns_poly.t

(** Ciphertext product with relinearization and rescale (paper Fig. 5). *)
val mul : ?keyswitch:keyswitch -> context -> Ciphertext.t -> Ciphertext.t -> Ciphertext.t

val square : ?keyswitch:keyswitch -> context -> Ciphertext.t -> Ciphertext.t

(** Homomorphic slot rotation: automorphism + rotation keyswitch. The
    eval key must hold the canonical amount. *)
val rotate : ?keyswitch:keyswitch -> context -> Ciphertext.t -> int -> Ciphertext.t

val conjugate : ?keyswitch:keyswitch -> context -> Ciphertext.t -> Ciphertext.t

(** Halevi–Shoup hoisted rotations: one digit decomposition of the
    ciphertext is shared by every amount.  Returns (amount, rotated)
    pairs, each decrypting to {!rotate}'s result (not bitwise: the
    shared mod-up rounds differently); [0] returns the ciphertext. *)
val rotate_many : context -> Ciphertext.t -> int list -> (int * Ciphertext.t) list

(** Sum of the rotations, hoisted, with a single mod-down for the whole
    batch: approximately (not bitwise) the sum of {!rotate_many}'s
    outputs.  [0] entries contribute the ciphertext itself. *)
val rotate_sum : context -> Ciphertext.t -> int list -> Ciphertext.t
