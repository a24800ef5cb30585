(** Per-chip references for the parallel keyswitching algorithms
    (paper §4.3.1, Fig. 8) on whole polynomials: the dataflow
    [Cinnamon_compiler.Keyswitch_alg.run] must reproduce bit for bit.
    Communication is not counted here; [run] counts it. *)

open Cinnamon_rns
open Cinnamon_ckks

(** CiFHER-style: after the broadcasts every chip holds all limbs, so
    the dataflow is the sequential {!Keyswitch.keyswitch}. *)
val cifher : Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> Rns_poly.t * Rns_poly.t

(** Input broadcast (Fig. 8b): each chip extends every digit to its own
    share of Q{_l} plus P and mods down locally; the shards are
    reassembled.  Bit-identical to sequential keyswitching. *)
val input_broadcast :
  Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> Rns_poly.t * Rns_poly.t

(** Output aggregation (Fig. 8c): each chip's round-robin limb share is
    one digit, keyed by that chip's pair of a round-robin key; each
    chip mods down its partial product, then the partials are summed. *)
val output_aggregation :
  Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> Rns_poly.t * Rns_poly.t
