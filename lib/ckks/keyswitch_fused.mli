(** Fused hybrid keyswitching — the library's one keyswitch engine.

    Bitwise equal to the textbook whole-polynomial keyswitch (the
    oracle in the test-only library under [test/oracle]) for every
    level and digit layout, but streams the
    digit-INTT → base-extension → NTT → key multiply-accumulate
    dataflow through cache-sized scratch tiles: base conversion's
    stage-1 scaling rides the INTT epilogue, digit-resident limbs skip
    their NTT∘INTT round trip, the (b, a) inner product accumulates
    lazily across all dnum digits with one reduction at tile exit, and
    mod-down transforms only the alpha extension limbs.  See DESIGN.md
    ("Fused keyswitch pipeline") for the dataflow and overflow
    bounds. *)

open Cinnamon_rns

(** [keyswitch params swk c]: [c] over a prefix of Q, Eval domain;
    returns (k0, k1) over the same basis. *)
val keyswitch : Params.t -> Keys.switch_key -> Rns_poly.t -> Rns_poly.t * Rns_poly.t

(** One digit of a keyswitch decomposition: ascending limb indices of
    Q_l and the index of the switch-key pair ([swk_b] / [swk_a]) it
    multiplies.  {!keyswitch} uses the standard layout
    ([Params.digit_ranges] truncated to the level, digit i keyed by
    pair i); one chip's round-robin share in output aggregation is a
    one-digit layout. *)
type digit = { limbs : int list; key : int }

(** Output aggregation's keyswitch: the sum over [digits] of each
    digit's own one-digit keyswitch, mod-downed — bitwise that sum, but
    with one shared mod-down (only its stage-1 scaling runs per digit;
    DESIGN.md, "Eval-domain mod-down").  Raises [Invalid_argument] on
    an empty list, an empty digit, or limbs that are unsorted, repeated
    or outside Q_l. *)
val keyswitch_shares :
  Params.t ->
  digit list ->
  Keys.switch_key ->
  Rns_poly.t ->
  Rns_poly.t * Rns_poly.t

(** {2 Shared decomposition (hoisting)}

    Rotating one ciphertext by many amounts re-uses one digit
    decomposition: {!decompose} once, then one {!apply} (or
    {!accumulate} + a single {!mod_down2}) per rotation. *)

type decomposition

(** Decompose and extend [c1] (Eval, over a prefix of Q) once, over
    the standard digit layout.  The extended digits are bitwise the
    oracle's mod-up of each digit. *)
val decompose : Params.t -> Rns_poly.t -> decomposition

(** The extension basis Q_l ∪ P accumulators must live on. *)
val target_basis : decomposition -> Basis.t

(** Inner product of the shared decomposition with [swk] into
    caller-owned Eval accumulators over {!target_basis}, optionally
    reading the digits through a Galois slot permutation ([perm], the
    hoisted automorphism).  Accumulators stay canonical, so calls
    chain across rotations for accumulate-then-single-mod-down
    rotate-and-sum. *)
val accumulate :
  decomposition ->
  Keys.switch_key ->
  ?perm:Ntt.perm ->
  acc0:Rns_poly.t ->
  acc1:Rns_poly.t ->
  unit ->
  unit

(** Fused mod-down of both accumulators by P: Eval over Q_l ∪ P in,
    Eval over Q_l out — bitwise the oracle's whole-polynomial mod-down
    on each. *)
val mod_down2 : decomposition -> Rns_poly.t -> Rns_poly.t -> Rns_poly.t * Rns_poly.t

(** One full keyswitch from the shared decomposition:
    {!accumulate} into fresh accumulators, then {!mod_down2}. *)
val apply : decomposition -> Keys.switch_key -> ?perm:Ntt.perm -> unit -> Rns_poly.t * Rns_poly.t
