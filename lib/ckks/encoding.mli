(** CKKS encoding: the canonical embedding and its inverse, via the
    O(n log n) special FFT over the rotation group {5{^j}}.  Slot
    counts below N/2 use gap (sparse) packing. *)

open Cinnamon_rns

(** Encode a complex vector (power-of-two length ≤ N/2) at scale
    [delta] into signed message-polynomial coefficients. *)
val encode_coeffs : n:int -> delta:float -> Cinnamon_util.Cplx.t array -> int array

(** Encode straight into an RNS polynomial over [basis] (Coeff domain). *)
val encode : basis:Basis.t -> n:int -> delta:float -> Cinnamon_util.Cplx.t array -> Rns_poly.t

(** Decode an RNS polynomial to [slots] complex values. *)
val decode : delta:float -> slots:int -> Rns_poly.t -> Cinnamon_util.Cplx.t array

val encode_real : basis:Basis.t -> n:int -> delta:float -> float array -> Rns_poly.t
val decode_real : delta:float -> slots:int -> Rns_poly.t -> float array
