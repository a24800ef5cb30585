(** Compilation target description: chip count, limb sizing, digit
    layout, stream placement, and keyswitch-pass policy. *)

type t = {
  chips : int;
  log_n : int;
  limb_bits : int;
  top_limbs : int;  (** limbs at the top of the chain (L+1) *)
  dnum : int;
  alpha : int;  (** limbs per digit = special-prime count *)
  group_size : int;  (** chips per concurrent stream group *)
  default_ks : Cinnamon_ir.Poly_ir.ks_algorithm;
  pass_mode : pass_mode;
  progpar : bool;
      (** exploit programmer-annotated concurrent streams (e.g. the two
          EvalMod streams inside bootstrap kernels) *)
  rf_bytes : int;  (** per-chip vector register file capacity *)
}

and pass_mode =
  | No_pass  (** default algorithm everywhere, unbatched *)
  | Pass_ib_only  (** batching, input-broadcast only (Fig. 13's "IB + Pass") *)
  | Pass_full  (** the Cinnamon keyswitch pass: IB + OA selection *)

(** Bytes of one limb (N 32-bit words). *)
val limb_bytes : t -> int

val n : t -> int

(** Vector registers that fit [rf_bytes] (at least 8). *)
val registers : t -> int

(** The paper's architectural configuration (N = 64K, 52 limbs,
    dnum = 3).  This is also the one compilation/run configuration
    record threaded through [Cinnamon_workloads.Runner] — its
    [default_ks], [pass_mode] and [progpar] fields select the
    keyswitching policy an experiment runs under. *)
val paper :
  ?chips:int ->
  ?group_size:int ->
  ?default_ks:Cinnamon_ir.Poly_ir.ks_algorithm ->
  ?pass_mode:pass_mode ->
  ?progpar:bool ->
  ?rf_bytes:int ->
  unit ->
  t

(** A configuration matching functional CKKS parameters (for the
    emulator). *)
val functional : ?chips:int -> ?rf_bytes:int -> Cinnamon_ckks.Params.t -> t

(** Chips hosting a stream: stream 0 spans the whole machine; streams
    1.. are placed round-robin on [group_size]-chip sub-groups. *)
val group_of_stream : t -> stream:int -> int list
