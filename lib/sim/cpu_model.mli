(** CPU baseline cost model (paper §6.1: 48-core Xeon): an analytic
    modmul count, cross-checked against this repo's measured OCaml NTT
    throughput. *)

(** Cost of one keyswitch in modmuls. *)
val keyswitch_modmuls : n:int -> limbs:int -> ext:int -> dnum:int -> float

(** The analytic model's bootstrap estimate at the paper's parameters. *)
val analytic_bootstrap_seconds : float

(** Scale a measured small-N single-core NTT time to a full 48-core
    bootstrap at N = 64K. *)
val extrapolate_from_measured : seconds_per_ntt:float -> n_meas:int -> cores:int -> float
