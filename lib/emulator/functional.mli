(** Functional emulation of compiled programs: execute a ciphertext-
    level program on real encrypted data through [Eval], with every
    keyswitch swapped for the parallel algorithm the compiler's pass
    selected — the end-to-end correctness argument for the compiler
    (the paper's CPU-emulator validation, §6.2). *)

open Cinnamon_ckks
open Cinnamon_ir

type keyset = {
  sk : Keys.secret_key;
  pk : Keys.public_key;
  ek : Keys.eval_key;
  rr_relin : Keys.switch_key;  (** round-robin digits, for OA *)
  rr_rotations : (int, Keys.switch_key) Hashtbl.t;
  rr_conjugate : Keys.switch_key;
  chips : int;
}

(** All key material a program needs, including output-aggregation's
    round-robin-digit keys. *)
val gen_keys :
  Params.t -> chips:int -> rotations:int list -> Cinnamon_util.Rng.t -> keyset

(** Rotation amounts appearing in a program. *)
val rotations_of : Ct_ir.t -> int list

type env = {
  params : Params.t;
  keys : keyset;
  plaintexts : (string, Cinnamon_util.Cplx.t array) Hashtbl.t;
  inputs : (string, Ciphertext.t) Hashtbl.t;
  algorithms : (Ct_ir.ct_id, Poly_ir.ks_algorithm) Hashtbl.t;
  comm : Cinnamon_compiler.Keyswitch_alg.comm_counter;
}

(** Per-ct-node algorithm assignments from an annotated polynomial IR. *)
val algorithms_of_poly : Poly_ir.t -> (Ct_ir.ct_id, Poly_ir.ks_algorithm) Hashtbl.t

val make_env :
  params:Params.t ->
  keys:keyset ->
  plaintexts:(string, Cinnamon_util.Cplx.t array) Hashtbl.t ->
  inputs:(string, Ciphertext.t) Hashtbl.t ->
  poly:Poly_ir.t ->
  env

(** Execute a program; returns the named output ciphertexts.  Raises
    [Cinnamon_util.Error] [Invalid_input] on an input missing from
    [inputs], a rotation without a key, and Bootstrap nodes (emulated
    at kernel granularity; see DESIGN.md). *)
val run : env -> Ct_ir.t -> (string * Ciphertext.t) list
