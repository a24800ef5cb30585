(** End-to-end compile driver: ciphertext IR → polynomial IR (with the
    keyswitch pass) → limb IR → register-allocated per-chip ISA.  All
    intermediate artifacts are kept for inspection. *)

open Cinnamon_ir

type result = {
  cfg : Compile_config.t;
  ct : Ct_ir.t;
  poly : Poly_ir.t;
  limb : Limb_ir.t;
  ks_report : Keyswitch_pass.report;
  machine : Cinnamon_isa.Isa.machine_program;
  regalloc : Regalloc.stats array;  (** per chip *)
  comm : Limb_ir.comm_stats;
}

(** Run the multi-stage static verifier ({!Verify.all}) over a finished
    result.  Empty list = every artifact is well-formed. *)
val verify : ?rotation_keys:int list -> result -> Verify.violation list

(** Compile.  The register-file budget comes from
    [cfg.Compile_config.rf_bytes] ({!Compile_config.registers}).  With
    [~verify:true] the result is checked by the static verifier and a
    [Cinnamon_util.Error] of kind [Verification] is raised when any
    rule is violated.  A config without [chips >= 1] and
    [1 <= group_size <= chips] raises kind [Invalid_input]. *)
val compile : ?verify:bool -> Compile_config.t -> Ct_ir.t -> result

(** One-line statistics for logs and the CLI. *)
val summary : result -> string
