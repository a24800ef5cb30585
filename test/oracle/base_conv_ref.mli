(** Reference base conversions for {!Cinnamon_rns.Base_conv}, on boxed
    [int array] arithmetic.  The q̂ tables are rebuilt from the bases
    through the public {!Cinnamon_rns.Crt} constants, never read from
    the kernel's memoized table. *)

open Cinnamon_rns

(** Approximate (fast) conversion of [x] (coefficient domain) to basis
    [dst], one canonical {!Modarith} call per term — bitwise equal to
    {!Base_conv.convert}. *)
val convert : Rns_poly.t -> dst:Basis.t -> Rns_poly.t

(** Exact conversion of the centered representative via bignum CRT —
    the reference for the [e·Q] slack bound. *)
val convert_exact : Rns_poly.t -> dst:Basis.t -> Rns_poly.t
