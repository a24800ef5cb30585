(** The parallel keyswitching algorithms (paper §4.3.1, Fig. 8) over
    real RNS polynomials.  Every algorithm runs on the fused engine
    ({!Cinnamon_ckks.Keyswitch_fused}) and counts its inter-chip
    communication with the paper's analytic formulas.

    Input broadcast and CiFHER are bit-identical to sequential
    keyswitching; output aggregation (digits = chip partitions) is
    decrypt-equivalent to it and bit-identical to its per-chip
    whole-polynomial reference, though it runs one shared mod-down
    instead of one per chip — all asserted by tests against the
    references under [test/oracle]. *)

open Cinnamon_rns
open Cinnamon_ckks

type comm_counter = {
  mutable n_broadcast : int;
  mutable n_aggregate : int;
  mutable limbs_moved : int;  (** limb payloads crossing chips *)
}

val new_counter : unit -> comm_counter

(** Switch key whose digits are the round-robin chip partition of the
    top-level limbs (legal by digit-selection freedom). *)
val gen_round_robin_key :
  Params.t ->
  Keys.secret_key ->
  s_from:Rns_poly.t ->
  chips:int ->
  Cinnamon_util.Rng.t ->
  Keys.switch_key

type key_material = Standard of Keys.switch_key | Round_robin of Keys.switch_key

(** Keyswitch [c] with [algorithm] across [chips], adding its
    communication to the counter.  Raises [Cinnamon_util.Error]
    [Invalid_input], before any work or counting, when [chips < 1], on
    an algorithm/key mismatch, and for output aggregation when the
    round-robin key's pair count is not [chips] or a chip's share of
    [c]'s limbs exceeds alpha. *)
val run :
  Params.t ->
  algorithm:Cinnamon_ir.Poly_ir.ks_algorithm ->
  chips:int ->
  key:key_material ->
  Rns_poly.t ->
  comm_counter ->
  Rns_poly.t * Rns_poly.t
