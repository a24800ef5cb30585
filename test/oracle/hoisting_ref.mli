(** Hoisted rotations on whole polynomials: the original per-digit
    formulation, kept as the bitwise oracle for
    {!Cinnamon_ckks.Eval.rotate_many} and
    {!Cinnamon_ckks.Eval.rotate_sum}. *)

open Cinnamon_rns
open Cinnamon_ckks

type precomputed_ref

val precompute_ref : Params.t -> Rns_poly.t -> precomputed_ref

val rotate_hoisted_ref :
  Params.t -> precomputed_ref -> Keys.switch_key -> Ciphertext.t -> rot:int -> Ciphertext.t

(** Sum of the rotations of [ct] by [rots] (rotation keys from the
    eval key), with the inner products accumulated across every
    rotation and one mod-down per accumulator at the end.  [0] adds
    [ct] itself. *)
val rotate_sum_ref :
  Params.t -> precomputed_ref -> Keys.eval_key -> Ciphertext.t -> int list -> Ciphertext.t
