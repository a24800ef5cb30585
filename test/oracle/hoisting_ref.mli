(** Hoisted rotations on whole polynomials: the original per-digit
    formulation, kept as the bitwise oracle for
    {!Cinnamon_ckks.Eval.rotate_many}. *)

open Cinnamon_rns
open Cinnamon_ckks

type precomputed_ref

val precompute_ref : Params.t -> Rns_poly.t -> precomputed_ref

val rotate_hoisted_ref :
  Params.t -> precomputed_ref -> Keys.switch_key -> Ciphertext.t -> rot:int -> Ciphertext.t
