(* Functional emulation of compiled programs.

   Executes a ciphertext-level IR program on real encrypted data
   through Eval, plugging into each keyswitching op the *parallel*
   algorithm the compiler's keyswitch pass selected — input broadcast,
   output aggregation, or CiFHER-style broadcast (Keyswitch_alg.run,
   which counts the inter-chip traffic with the paper's analytic
   formulas).  Decrypted outputs can then be compared against a plain
   single-chip evaluation and against the expected plaintext result,
   which is the end-to-end correctness argument for the compiler (the
   analogue of the paper's CPU emulator runs, §6.2).

   Runs at the functional (small-N) CKKS parameters. *)

open Cinnamon_ckks
open Cinnamon_compiler
open Cinnamon_ir
module Cplx = Cinnamon_util.Cplx
module Error = Cinnamon_util.Error

type keyset = {
  sk : Keys.secret_key;
  pk : Keys.public_key;
  ek : Keys.eval_key;
  (* round-robin-digit switch keys for output aggregation *)
  rr_relin : Keys.switch_key;
  rr_rotations : (int, Keys.switch_key) Hashtbl.t;
  rr_conjugate : Keys.switch_key;
  chips : int;
}

(* Generate all key material a program needs, including the
   round-robin-digit keys of output-aggregation keyswitching. *)
let gen_keys params ~chips ~rotations rng =
  let sk = Keys.gen_secret_key params rng in
  let pk = Keys.gen_public_key params sk rng in
  let rotations = Keys.canonicalize_rotations ~n:params.Params.n rotations in
  let ek = Keys.provision params sk ~rotations ~conjugation:true rng in
  let qp = Params.qp_basis params in
  let s = Keys.sk_over sk qp in
  let rr key_from = Keyswitch_alg.gen_round_robin_key params sk ~s_from:key_from ~chips rng in
  let rr_relin = rr (Cinnamon_rns.Rns_poly.mul s s) in
  let rr_rotations = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = Keys.galois_of_rotation ~n:params.Params.n r in
      Hashtbl.add rr_rotations r (rr (Cinnamon_rns.Rns_poly.automorphism s ~k)))
    rotations;
  let rr_conjugate =
    rr (Cinnamon_rns.Rns_poly.automorphism s ~k:(Keys.galois_conjugate ~n:params.Params.n))
  in
  { sk; pk; ek; rr_relin; rr_rotations; rr_conjugate; chips }

(* Rotation amounts appearing in a program. *)
let rotations_of (ct : Ct_ir.t) =
  Array.to_list ct.Ct_ir.nodes
  |> List.filter_map (fun n -> match n.Ct_ir.op with Ct_ir.Rotate (_, r) -> Some r | _ -> None)
  |> List.sort_uniq compare

(* The key material [algorithm] needs for a keyswitch of [kind]:
   output aggregation takes the round-robin-digit key, every other
   algorithm the standard one. *)
let key_material params keys ~algorithm kind =
  let pick std rr =
    if algorithm = Poly_ir.Output_aggregation then Keyswitch_alg.Round_robin rr
    else Keyswitch_alg.Standard std
  in
  match kind with
  | Poly_ir.Ks_relin -> pick keys.ek.Keys.relin keys.rr_relin
  | Poly_ir.Ks_conjugate -> pick (Option.get keys.ek.Keys.conjugation) keys.rr_conjugate
  | Poly_ir.Ks_rotation r -> (
    let c = Keys.canonical_rotation ~n:params.Params.n r in
    let std = Cinnamon_util.Memo.find_opt keys.ek.Keys.rotations c in
    match (std, Hashtbl.find_opt keys.rr_rotations c) with
    | Some std, Some rr -> pick std rr
    | _ -> Error.failf Error.Invalid_input "Functional.run: no key for rotation %d" r)

type env = {
  params : Params.t;
  keys : keyset;
  plaintexts : (string, Cplx.t array) Hashtbl.t;
  inputs : (string, Ciphertext.t) Hashtbl.t;
  (* algorithm annotation per ct node, from the compiled poly IR *)
  algorithms : (Ct_ir.ct_id, Poly_ir.ks_algorithm) Hashtbl.t;
  comm : Keyswitch_alg.comm_counter;
}

(* Collect per-ct-node keyswitch algorithm assignments. *)
let algorithms_of_poly (p : Poly_ir.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (n : Poly_ir.node) ->
      match n.Poly_ir.op with
      | Poly_ir.PKeyswitch k -> Hashtbl.replace tbl n.Poly_ir.ct k.Poly_ir.algorithm
      | _ -> ())
    p.Poly_ir.nodes;
  tbl

let make_env ~params ~keys ~plaintexts ~inputs ~poly =
  {
    params;
    keys;
    plaintexts;
    inputs;
    algorithms = algorithms_of_poly poly;
    comm = Keyswitch_alg.new_counter ();
  }

let plaintext env name slots =
  match Hashtbl.find_opt env.plaintexts name with
  | Some z -> z
  | None -> Array.make slots (Cplx.make 1.0 0.0) (* structural runs: default operand *)

(* Additions tolerate ~2% relative scale drift (Eval.align); deep
   circuits — the graph front-end's 30+-level models — accumulate more,
   since ct-ct products double the drift per level.  When operands have
   drifted past the slack, spend one level re-aligning the drifted one
   exactly (Eval.adjust_scale, the EVA/Lattigo scale-management move);
   below the slack this is the identity, so shallow programs execute
   exactly as before. *)
let align_drifted ctx a b =
  let sa = Ciphertext.scale a and sb = Ciphertext.scale b in
  if Float.abs (sa -. sb) <= 0.02 *. sa then (a, b)
  else begin
    let target_level = min (Ciphertext.level a) (Ciphertext.level b) - 1 in
    if sa > sb then (Eval.adjust_scale ctx a ~target_level ~target_scale:sb, b)
    else (a, Eval.adjust_scale ctx b ~target_level ~target_scale:sa)
  end

(* Execute a ct-IR program through Eval; returns the named outputs. *)
let run env (prog : Ct_ir.t) : (string * Ciphertext.t) list =
  let ctx = Eval.context env.params env.keys.ek in
  let values : (int, Ciphertext.t) Hashtbl.t = Hashtbl.create 128 in
  let v id = Hashtbl.find values id in
  let outputs = ref [] in
  Array.iter
    (fun (n : Ct_ir.node) ->
      let set c = Hashtbl.replace values n.Ct_ir.id c in
      (* Eval's keyswitch for this node: the algorithm the pass chose *)
      let keyswitch kind c =
        let algorithm =
          Option.value (Hashtbl.find_opt env.algorithms n.Ct_ir.id) ~default:Poly_ir.Seq
        in
        let key = key_material env.params env.keys ~algorithm kind in
        Keyswitch_alg.run env.params ~algorithm ~chips:env.keys.chips ~key c env.comm
      in
      match n.Ct_ir.op with
      | Ct_ir.Input name -> (
        match Hashtbl.find_opt env.inputs name with
        | Some c -> set c
        | None -> Error.failf Error.Invalid_input "Functional.run: no input named %S" name)
      | Ct_ir.Add (a, b) ->
        let a, b = align_drifted ctx (v a) (v b) in
        set (Eval.add a b)
      | Ct_ir.Sub (a, b) ->
        let a, b = align_drifted ctx (v a) (v b) in
        set (Eval.sub a b)
      | Ct_ir.Mul (a, b) -> set (Eval.mul ~keyswitch:(keyswitch Poly_ir.Ks_relin) ctx (v a) (v b))
      | Ct_ir.Square a -> set (Eval.square ~keyswitch:(keyswitch Poly_ir.Ks_relin) ctx (v a))
      | Ct_ir.MulPlain (a, name) ->
        set (Eval.mul_plain ctx (v a) (plaintext env name (Ciphertext.slots (v a))))
      | Ct_ir.MulPlainRaw (a, name) ->
        set (Eval.mul_plain_raw ctx (v a) (plaintext env name (Ciphertext.slots (v a))))
      | Ct_ir.Rescale a -> set (Eval.rescale (v a))
      | Ct_ir.AddPlain (a, name) ->
        set (Eval.add_plain ctx (v a) (plaintext env name (Ciphertext.slots (v a))))
      | Ct_ir.MulConst (a, c) -> set (Eval.mul_const ctx (v a) c)
      | Ct_ir.AddConst (a, c) -> set (Eval.add_const ctx (v a) c)
      | Ct_ir.Rotate (a, r) ->
        set (Eval.rotate ~keyswitch:(keyswitch (Poly_ir.Ks_rotation r)) ctx (v a) r)
      | Ct_ir.Conjugate a ->
        set (Eval.conjugate ~keyswitch:(keyswitch Poly_ir.Ks_conjugate) ctx (v a))
      | Ct_ir.Bootstrap _ ->
        Error.fail Error.Invalid_input
          "Functional.run: bootstrap nodes are emulated at kernel granularity"
      | Ct_ir.Output (a, name) ->
        outputs := (name, v a) :: !outputs;
        set (v a))
    prog.Ct_ir.nodes;
  List.rev !outputs
