(** Sequential (single-chip) keyswitching on whole polynomials — the
    reference semantics of the paper's Fig. 4 (digit split, mod-up of
    each digit to Q{_l} ∪ P, inner product with the switch key,
    mod-down by P) and the oracle for the fused engine. *)

open Cinnamon_rns
open Cinnamon_ckks

(** Extend a digit (over a sub-basis) to [target] with one fast base
    conversion, reassembling limbs in target order; Eval domain out.
    Shared by the hoisting and parallel-keyswitch references. *)
val extend_digit : Rns_poly.t -> target:Basis.t -> Rns_poly.t

(** Level-aware digit split: the full-chain digit ranges truncated to
    the polynomial's basis; returns [(first limb index, digit)] pairs. *)
val split_digits : Params.t -> Rns_poly.t -> (int * Rns_poly.t) list

(** [keyswitch params swk c] returns (k0, k1) over [c]'s basis with
    k0 + k1·s ≈ c · s{_from}. [c] must be in Eval domain over a prefix
    of Q. *)
val keyswitch : Params.t -> Keys.switch_key -> Rns_poly.t -> Rns_poly.t * Rns_poly.t
