(** Multi-stage static verifier over compiled artifacts.

    Each [verify_*] function re-checks the invariants one pipeline
    stage is supposed to establish and returns typed diagnostics; [all]
    runs every stage (under telemetry spans, category ["verify"]) and
    concatenates the findings in stage order.  An empty list means the
    artifact set is well-formed under every rule in {!rules}.

    The checks are read-only: no artifact is modified, nothing is
    raised.  [Pipeline.verify] adapts a {!Pipeline.result} onto [all],
    and [Pipeline.compile ~verify:true] turns a non-empty result into a
    typed [Cinnamon_util.Error]. *)

open Cinnamon_ir

type stage = S_ct | S_poly | S_limb | S_isa

type violation = {
  v_stage : stage;
  v_rule : string;  (** stable rule name, e.g. ["ct-def-before-use"] *)
  v_node : int;  (** node id / instruction index; [-1] for whole-program rules *)
  v_chip : int option;  (** chip, where meaningful (limb/isa stages) *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** The full rule catalog: [(stage, rule-name, one-line description)],
    in checking order.  Mirrored in DESIGN.md. *)
val rules : (stage * string * string) list

val all :
  ?rotation_keys:int list ->
  cfg:Compile_config.t ->
  ct:Ct_ir.t ->
  poly:Poly_ir.t ->
  limb:Limb_ir.t ->
  machine:Cinnamon_isa.Isa.machine_program ->
  regalloc:Regalloc.stats array ->
  unit ->
  violation list
