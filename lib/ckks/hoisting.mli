(** Hoisted rotations (Halevi–Shoup): rotate one ciphertext by many
    amounts while computing its digit decomposition only once — the
    single-chip ancestor of the paper's batched input-broadcast
    keyswitching, and the reference for its tests.

    The fast path rides {!Keyswitch_fused}: one shared decomposition,
    one lazy permuted multiply-accumulate per rotation (the
    automorphism is a gather inside the key multiply), and for
    rotate-and-sum a single mod-down for the whole batch.  The original
    whole-polynomial formulation is the bitwise oracle in the test-only
    library under [test/oracle]. *)

open Cinnamon_rns

type precomputed

(** Decompose and extend the c1 component once (the shared part of all
    subsequent rotations). *)
val precompute : ?pool:Cinnamon_pool.Pool.t -> Params.t -> Rns_poly.t -> precomputed

(** One rotation from the shared decomposition. *)
val rotate_hoisted :
  ?pool:Cinnamon_pool.Pool.t ->
  Params.t ->
  precomputed ->
  Keys.switch_key ->
  Ciphertext.t ->
  rot:int ->
  Ciphertext.t

(** Rotate by every amount in the list, sharing one decomposition;
    returns (amount, rotated) pairs. *)
val rotate_many :
  ?pool:Cinnamon_pool.Pool.t ->
  Params.t ->
  Keys.eval_key ->
  Ciphertext.t ->
  int list ->
  (int * Ciphertext.t) list

(** Sum of the rotations of one ciphertext with a single mod-down:
    every rotation's inner product accumulates over Q_l ∪ P and the
    division by P happens once.  Approximately (not bitwise) equal to
    summing individual rotations — the batch shares one conversion
    rounding.  [rot = 0] entries contribute the ciphertext itself. *)
val rotate_sum :
  ?pool:Cinnamon_pool.Pool.t ->
  Params.t ->
  Keys.eval_key ->
  Ciphertext.t ->
  int list ->
  Ciphertext.t
