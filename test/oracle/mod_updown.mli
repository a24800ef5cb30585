(** Mod up / mod down (paper Fig. 3) — the keyswitching basis moves on
    whole polynomials, kept as the reference for the fused engine. *)

open Cinnamon_rns

(** [mod_up x ~ext] extends [x] from its basis S to S ∪ ext by fast
    base conversion of the new limbs. Input in any domain; result in
    Coeff domain. *)
val mod_up : Rns_poly.t -> ext:Basis.t -> Rns_poly.t

(** [mod_down x ~target ~ext] divides by the product of [ext] with
    rounding: x over target ∪ ext becomes round(x / prod ext) over
    [target]. Preserves the input's representation domain. *)
val mod_down : Rns_poly.t -> target:Basis.t -> ext:Basis.t -> Rns_poly.t
