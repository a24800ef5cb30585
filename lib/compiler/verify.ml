(* Multi-stage static verifier for compiled artifacts.

   Every stage of the pipeline (ciphertext IR, polynomial IR, limb IR,
   per-chip ISA) carries invariants the later stages and the simulator
   silently rely on; a scheduling or allocation bug that breaks one
   today only surfaces as wrong cycle counts or a crash deep in the
   simulator.  This pass re-checks each artifact independently and
   returns typed diagnostics — one [violation] per broken rule
   occurrence, carrying the stage, the offending node (or instruction
   index), the chip where that is meaningful, and a stable
   machine-greppable rule name.

   The rule catalog (also rendered in DESIGN.md):

   ct stage      ct-ssa-shape        dense ids, operands in range
                 ct-def-before-use   operands precede their user
                 ct-stream-range     stream ids within num_streams
                 ct-level            level bookkeeping matches op semantics
                 ct-rotation-key     no rotation by 0; amounts within the
                                     provided rotation-key set
                 ct-noise-budget     static noise stays below the modulus
                                     chain's capacity (Noise.analyze)
   poly stage    poly-ssa-shape      dense ids, ct backpointer in range
                 poly-def-before-use operands precede their user
                 poly-limb-bound     limb counts within the modulus chain
                 poly-rescale-step   rescale drops exactly one limb
                 poly-operand-limbs  operands carry enough limbs
                 poly-ks-pair        keyswitch sites come in component
                                     0/1 pairs with equal annotations
                 poly-ks-batch       batches are uniform in algorithm,
                                     batchable (IB/OA) and >= 2 sites
   limb stage    limb-chip-ownership every vreg defined on exactly one
                                     chip; reads stay on that chip
                 limb-use-before-def per-chip program order respects defs
                 limb-collective-pairing
                                     collectives appear exactly once on
                                     every group chip, with identical
                                     signatures (no unmatched/duplicate
                                     transfers)
                 limb-collective-order
                                     all chip pairs order their shared
                                     collectives identically (ring-
                                     deadlock smoke check)
                 limb-ks-schedule    emitted broadcast/aggregation counts
                                     match what the keyswitch-pass
                                     schedule requires
   isa stage     isa-reg-bound       register operands within the
                                     program's n_regs, which fits the
                                     register file
                 isa-read-before-write
                                     no register read before its first
                                     write
                 isa-regalloc-stats  spill/reload/peak statistics are
                                     consistent with the emitted program
                 isa-translation     each chip's ISA replays its limb
                                     program: every read finds the value
                                     the limb instruction names, every
                                     collective matches its limb
                                     counterpart, and every reload finds
                                     the value last stored at its address

   The checks are pure over Pipeline.result artifacts; [Pipeline.verify]
   is the front door and [Pipeline.compile ~verify:true] raises a typed
   [Cinnamon_util.Error] on any violation. *)

open Cinnamon_ir
module Tel = Cinnamon_telemetry.Telemetry
module I = Cinnamon_isa.Isa

type stage = S_ct | S_poly | S_limb | S_isa

let stage_name = function
  | S_ct -> "ct"
  | S_poly -> "poly"
  | S_limb -> "limb"
  | S_isa -> "isa"

type violation = {
  v_stage : stage;
  v_rule : string; (* stable rule name, e.g. "ct-def-before-use" *)
  v_node : int; (* node id / instruction index; -1 for whole-program rules *)
  v_chip : int option; (* chip, for limb/isa stage violations *)
  v_detail : string;
}

let pp_violation fmt v =
  let chip = match v.v_chip with Some c -> Printf.sprintf " chip %d" c | None -> "" in
  let at = if v.v_node >= 0 then Printf.sprintf " at v%d" v.v_node else "" in
  Format.fprintf fmt "[%s] %s%s%s: %s" (stage_name v.v_stage) v.v_rule at chip v.v_detail

let rules =
  [
    (S_ct, "ct-ssa-shape", "node ids are dense and operands are in range");
    (S_ct, "ct-def-before-use", "every operand is defined before its user");
    (S_ct, "ct-stream-range", "stream annotations lie within num_streams");
    (S_ct, "ct-level", "per-node levels match the op's level semantics and stay >= 0");
    (S_ct, "ct-rotation-key", "no rotation by 0; amounts lie in the rotation-key set when given");
    (S_ct, "ct-noise-budget", "static worst-case noise stays below the modulus chain capacity");
    (S_poly, "poly-ssa-shape", "node ids are dense and ct backpointers are in range");
    (S_poly, "poly-def-before-use", "every operand is defined before its user");
    (S_poly, "poly-limb-bound", "limb counts lie within [1, top_limbs]");
    (S_poly, "poly-rescale-step", "rescale consumes exactly one limb");
    (S_poly, "poly-operand-limbs", "operands carry at least the node's limb count");
    (S_poly, "poly-ks-pair", "keyswitch sites pair components 0/1 with equal annotations");
    (S_poly, "poly-ks-batch", "batches are algorithm-uniform, batchable, and hold >= 2 sites");
    (S_limb, "limb-chip-ownership", "every vreg is defined on exactly one chip and read there");
    (S_limb, "limb-use-before-def", "per-chip program order defines vregs before use");
    ( S_limb,
      "limb-collective-pairing",
      "each collective appears exactly once per group chip with one signature" );
    (S_limb, "limb-collective-order", "chip pairs agree on the order of shared collectives");
    (S_limb, "limb-ks-schedule", "collective counts match the keyswitch-pass schedule");
    ( S_isa,
      "isa-reg-bound",
      "register operands lie within the program's n_regs, which fits the register file" );
    (S_isa, "isa-read-before-write", "no register is read before its first write");
    (S_isa, "isa-regalloc-stats", "regalloc statistics are consistent with the emitted program");
    ( S_isa,
      "isa-translation",
      "the ISA replays the limb program: reads find the named values, reloads their stores" );
  ]

(* --- ct stage ----------------------------------------------------------- *)

let verify_ct ?rotation_keys (cfg : Compile_config.t) (ct : Ct_ir.t) : violation list =
  let vs = ref [] in
  let flag rule node detail =
    vs := { v_stage = S_ct; v_rule = rule; v_node = node; v_chip = None; v_detail = detail } :: !vs
  in
  let size = Ct_ir.size ct in
  let in_range o = o >= 0 && o < size in
  Array.iteri
    (fun i (n : Ct_ir.node) ->
      if n.Ct_ir.id <> i then
        flag "ct-ssa-shape" n.Ct_ir.id (Printf.sprintf "node at position %d carries id %d" i n.Ct_ir.id);
      List.iter
        (fun o ->
          if not (in_range o) then
            flag "ct-ssa-shape" n.Ct_ir.id (Printf.sprintf "operand v%d out of range [0, %d)" o size)
          else if o >= n.Ct_ir.id then
            flag "ct-def-before-use" n.Ct_ir.id
              (Printf.sprintf "operand v%d is not defined before v%d" o n.Ct_ir.id))
        (Ct_ir.operands n.Ct_ir.op);
      if n.Ct_ir.stream < 0 || n.Ct_ir.stream >= ct.Ct_ir.num_streams then
        flag "ct-stream-range" n.Ct_ir.id
          (Printf.sprintf "stream %d outside [0, %d)" n.Ct_ir.stream ct.Ct_ir.num_streams);
      if n.Ct_ir.level < 0 then
        flag "ct-level" n.Ct_ir.id (Printf.sprintf "negative level %d" n.Ct_ir.level);
      (* recompute the level the op semantics dictate *)
      let lv o = if in_range o then Some ct.Ct_ir.nodes.(o).Ct_ir.level else None in
      let lv2 a b = match (lv a, lv b) with Some x, Some y -> Some (min x y) | _ -> None in
      let expected =
        match n.Ct_ir.op with
        | Ct_ir.Input _ -> Some ct.Ct_ir.top_level
        | Ct_ir.Add (a, b) | Ct_ir.Sub (a, b) -> lv2 a b
        | Ct_ir.Mul (a, b) -> Option.map (fun l -> l - 1) (lv2 a b)
        | Ct_ir.Square a | Ct_ir.MulPlain (a, _) | Ct_ir.MulConst (a, _) | Ct_ir.Rescale a ->
          Option.map (fun l -> l - 1) (lv a)
        | Ct_ir.MulPlainRaw (a, _)
        | Ct_ir.AddPlain (a, _)
        | Ct_ir.AddConst (a, _)
        | Ct_ir.Rotate (a, _)
        | Ct_ir.Conjugate a
        | Ct_ir.Output (a, _) -> lv a
        | Ct_ir.Bootstrap _ -> Some ct.Ct_ir.boot_level
      in
      (match expected with
      | Some e when e <> n.Ct_ir.level ->
        flag "ct-level" n.Ct_ir.id
          (Printf.sprintf "level %d, but %s of its operands implies %d" n.Ct_ir.level
             (match n.Ct_ir.op with Ct_ir.Input _ -> "top level" | _ -> "the level")
             e)
      | _ -> ());
      match n.Ct_ir.op with
      | Ct_ir.Rotate (_, 0) ->
        flag "ct-rotation-key" n.Ct_ir.id "rotation by 0 requires no keyswitch and is illegal"
      | Ct_ir.Rotate (_, r) -> begin
        match rotation_keys with
        | Some keys when not (List.mem r keys) ->
          flag "ct-rotation-key" n.Ct_ir.id
            (Printf.sprintf "no rotation key for amount %d in the provided key set" r)
        | _ -> ()
      end
      | _ -> ())
    ct.Ct_ir.nodes;
  (* Noise-budget clearance: the decoded error must stay finite and
     below the modulus chain's capacity (with a two-limb safety
     margin), otherwise decryption is destroyed outright.  The tighter
     precision criterion (Noise.validate's margin against the scale)
     stays informational in the CLI. *)
  let est = Noise.analyze ~n:(Compile_config.n cfg) ct in
  let budget =
    float_of_int ((cfg.Compile_config.top_limbs - 2) * cfg.Compile_config.limb_bits)
  in
  if Float.is_nan est.Noise.worst || est.Noise.worst = Float.infinity then
    flag "ct-noise-budget" est.Noise.worst_node "noise estimate diverged (nan/inf)"
  else if est.Noise.worst > budget then
    flag "ct-noise-budget" est.Noise.worst_node
      (Printf.sprintf "worst noise 2^%.1f exceeds the modulus-chain budget of 2^%.0f"
         est.Noise.worst budget);
  List.rev !vs

(* --- poly stage --------------------------------------------------------- *)

let verify_poly (cfg : Compile_config.t) (p : Poly_ir.t) : violation list =
  let vs = ref [] in
  let flag rule node detail =
    vs := { v_stage = S_poly; v_rule = rule; v_node = node; v_chip = None; v_detail = detail } :: !vs
  in
  let size = Poly_ir.size p in
  let ct_size = Ct_ir.size p.Poly_ir.source in
  let in_range o = o >= 0 && o < size in
  let limb_cap = max cfg.Compile_config.top_limbs (p.Poly_ir.source.Ct_ir.top_level + 1) in
  Array.iteri
    (fun i (n : Poly_ir.node) ->
      if n.Poly_ir.id <> i then
        flag "poly-ssa-shape" n.Poly_ir.id
          (Printf.sprintf "node at position %d carries id %d" i n.Poly_ir.id);
      if n.Poly_ir.ct < 0 || n.Poly_ir.ct >= ct_size then
        flag "poly-ssa-shape" n.Poly_ir.id
          (Printf.sprintf "ct backpointer v%d out of range [0, %d)" n.Poly_ir.ct ct_size);
      if n.Poly_ir.limbs < 1 || n.Poly_ir.limbs > limb_cap then
        flag "poly-limb-bound" n.Poly_ir.id
          (Printf.sprintf "limb count %d outside [1, %d]" n.Poly_ir.limbs limb_cap);
      List.iter
        (fun o ->
          if not (in_range o) then
            flag "poly-ssa-shape" n.Poly_ir.id
              (Printf.sprintf "operand p%d out of range [0, %d)" o size)
          else begin
            if o >= n.Poly_ir.id then
              flag "poly-def-before-use" n.Poly_ir.id
                (Printf.sprintf "operand p%d is not defined before p%d" o n.Poly_ir.id);
            let ol = p.Poly_ir.nodes.(o).Poly_ir.limbs in
            match n.Poly_ir.op with
            | Poly_ir.PBootPlaceholder _ -> () (* bootstrap raises the level *)
            | Poly_ir.PRescale _ ->
              if ol <> n.Poly_ir.limbs + 1 then
                flag "poly-rescale-step" n.Poly_ir.id
                  (Printf.sprintf "rescale from %d limbs to %d (must drop exactly one)" ol
                     n.Poly_ir.limbs)
            | Poly_ir.PKeyswitch _ ->
              if ol <> n.Poly_ir.limbs then
                flag "poly-operand-limbs" n.Poly_ir.id
                  (Printf.sprintf "keyswitch input p%d carries %d limbs, result claims %d" o ol
                     n.Poly_ir.limbs)
            | _ ->
              if ol < n.Poly_ir.limbs then
                flag "poly-operand-limbs" n.Poly_ir.id
                  (Printf.sprintf "operand p%d carries %d limbs, fewer than the node's %d" o ol
                     n.Poly_ir.limbs)
          end)
        (Poly_ir.operands n.Poly_ir.op))
    p.Poly_ir.nodes;
  (* keyswitch sites pair up per input, with equal annotations *)
  let by_input : (int, (int * Poly_ir.ks_site) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (n : Poly_ir.node) ->
      match n.Poly_ir.op with
      | Poly_ir.PKeyswitch k ->
        let cur = try Hashtbl.find by_input k.Poly_ir.input with Not_found -> [] in
        Hashtbl.replace by_input k.Poly_ir.input ((n.Poly_ir.id, k) :: cur)
      | _ -> ())
    p.Poly_ir.nodes;
  let inputs = Hashtbl.fold (fun input sites acc -> (input, List.rev sites) :: acc) by_input [] in
  let inputs = List.sort compare inputs in
  List.iter
    (fun (input, sites) ->
      let rep = match sites with (id, _) :: _ -> id | [] -> -1 in
      let comps = List.sort compare (List.map (fun (_, k) -> k.Poly_ir.component) sites) in
      if comps <> [ 0; 1 ] then
        flag "poly-ks-pair" rep
          (Printf.sprintf "input p%d has components [%s] (want exactly [0; 1])" input
             (String.concat "; " (List.map string_of_int comps)))
      else begin
        match sites with
        | [ (_, k0); (_, k1) ] ->
          if k0.Poly_ir.kind <> k1.Poly_ir.kind then
            flag "poly-ks-pair" rep (Printf.sprintf "input p%d pairs differing kinds" input);
          if k0.Poly_ir.algorithm <> k1.Poly_ir.algorithm then
            flag "poly-ks-pair" rep
              (Printf.sprintf "input p%d pairs algorithms %s vs %s" input
                 (Poly_ir.algorithm_name k0.Poly_ir.algorithm)
                 (Poly_ir.algorithm_name k1.Poly_ir.algorithm));
          if k0.Poly_ir.batch <> k1.Poly_ir.batch then
            flag "poly-ks-pair" rep (Printf.sprintf "input p%d pairs differing batch ids" input)
        | _ -> ()
      end)
    inputs;
  (* batch legality: uniform algorithm, batchable algorithm, >= 2
     logical sites, and no batches at all under No_pass *)
  let batches : (int, (int * Poly_ir.ks_site) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((n : Poly_ir.node), (k : Poly_ir.ks_site)) ->
      if k.Poly_ir.component = 0 then
        match k.Poly_ir.batch with
        | Some g ->
          let cur = try Hashtbl.find batches g with Not_found -> [] in
          Hashtbl.replace batches g ((n.Poly_ir.id, k) :: cur)
        | None -> ())
    (Poly_ir.keyswitch_sites p);
  let batch_list = Hashtbl.fold (fun g sites acc -> (g, List.rev sites) :: acc) batches [] in
  List.iter
    (fun (g, sites) ->
      let rep = match sites with (id, _) :: _ -> id | [] -> -1 in
      if cfg.Compile_config.pass_mode = Compile_config.No_pass then
        flag "poly-ks-batch" rep
          (Printf.sprintf "batch %d exists, but pass_mode is No_pass (nothing may batch)" g);
      let algs =
        List.sort_uniq compare (List.map (fun (_, k) -> k.Poly_ir.algorithm) sites)
      in
      (match algs with
      | [ Poly_ir.Input_broadcast ] | [ Poly_ir.Output_aggregation ] -> ()
      | [ a ] ->
        flag "poly-ks-batch" rep
          (Printf.sprintf "batch %d uses unbatchable algorithm %s" g (Poly_ir.algorithm_name a))
      | _ ->
        flag "poly-ks-batch" rep
          (Printf.sprintf "batch %d mixes algorithms [%s]" g
             (String.concat "; " (List.map Poly_ir.algorithm_name algs))));
      let distinct_inputs =
        List.sort_uniq compare (List.map (fun (_, k) -> k.Poly_ir.input) sites)
      in
      if List.length distinct_inputs < 2 then
        flag "poly-ks-batch" rep
          (Printf.sprintf "batch %d holds %d logical site(s); batching needs >= 2" g
             (List.length distinct_inputs)))
    (List.sort compare batch_list);
  List.rev !vs

(* --- limb stage --------------------------------------------------------- *)

type coll_sig = {
  cs_kind : Limb_ir.collective_kind;
  cs_group : int list;
  cs_limbs : int;
  mutable cs_chips : int list; (* chips that emitted the collective, reverse order *)
}

let verify_limb (cfg : Compile_config.t) (poly : Poly_ir.t) (limb : Limb_ir.t) : violation list =
  let vs = ref [] in
  let flag ?chip rule node detail =
    vs := { v_stage = S_limb; v_rule = rule; v_node = node; v_chip = chip; v_detail = detail } :: !vs
  in
  let n_vregs = limb.Limb_ir.n_vregs in
  (* first (and only expected) definition site per vreg *)
  let def_chip = Array.make (max 1 n_vregs) (-1) in
  let def_pos = Array.make (max 1 n_vregs) (-1) in
  Array.iter
    (fun (cp : Limb_ir.chip_program) ->
      List.iteri
        (fun pos instr ->
          Limb_ir.fold_writes
            (fun () v ->
              if v < 0 || v >= n_vregs then
                flag ~chip:cp.Limb_ir.chip "limb-chip-ownership" pos
                  (Printf.sprintf "defined vreg %d out of range [0, %d)" v n_vregs)
              else if def_chip.(v) = -1 then begin
                def_chip.(v) <- cp.Limb_ir.chip;
                def_pos.(v) <- pos
              end
              else if def_chip.(v) <> cp.Limb_ir.chip then
                flag ~chip:cp.Limb_ir.chip "limb-chip-ownership" pos
                  (Printf.sprintf "vreg %d defined on chip %d and again on chip %d" v
                     def_chip.(v) cp.Limb_ir.chip)
              else
                flag ~chip:cp.Limb_ir.chip "limb-chip-ownership" pos
                  (Printf.sprintf "vreg %d defined twice on chip %d" v cp.Limb_ir.chip))
            () instr)
        cp.Limb_ir.instrs)
    limb.Limb_ir.chips;
  (* reads: a vreg never defined anywhere is HBM-resident (evalkey /
     modelled broadcast payload) and legal; a defined vreg must be read
     on its owner chip, after its definition.  The sequential keyswitch
     is the one lowering that gathers remote limbs implicitly (it
     abstracts a single-chip execution), so its presence disables the
     cross-chip locality check — the unique-definition and
     use-before-def checks stay on.  Multi-stream (progpar) programs
     also gather implicitly where a stream's result re-enters the
     whole-machine stream, so locality is only checked for
     single-stream programs. *)
  let implicit_gather =
    poly.Poly_ir.num_streams > 1
    || List.exists
         (fun ((_ : Poly_ir.node), (k : Poly_ir.ks_site)) -> k.Poly_ir.algorithm = Poly_ir.Seq)
         (Poly_ir.keyswitch_sites poly)
  in
  Array.iter
    (fun (cp : Limb_ir.chip_program) ->
      List.iteri
        (fun pos instr ->
          Limb_ir.fold_reads
            (fun () v ->
              if v < 0 || v >= n_vregs then
                flag ~chip:cp.Limb_ir.chip "limb-chip-ownership" pos
                  (Printf.sprintf "read vreg %d out of range [0, %d)" v n_vregs)
              else if def_chip.(v) >= 0 then begin
                if def_chip.(v) <> cp.Limb_ir.chip then begin
                  if not implicit_gather then
                    flag ~chip:cp.Limb_ir.chip "limb-chip-ownership" pos
                      (Printf.sprintf "vreg %d owned by chip %d is read on chip %d" v
                         def_chip.(v) cp.Limb_ir.chip)
                end
                else if def_pos.(v) > pos then
                  flag ~chip:cp.Limb_ir.chip "limb-use-before-def" pos
                    (Printf.sprintf "vreg %d read at %d but defined at %d" v pos def_pos.(v))
              end)
            () instr)
        cp.Limb_ir.instrs)
    limb.Limb_ir.chips;
  (* collective pairing: group by id, demand one instance per group
     chip with an identical signature *)
  let colls : (int, coll_sig) Hashtbl.t = Hashtbl.create 64 in
  let coll_order = ref [] in
  Array.iter
    (fun (cp : Limb_ir.chip_program) ->
      List.iteri
        (fun pos instr ->
          match instr with
          | Limb_ir.Collective { kind; group; limbs; id; _ } -> begin
            if not (List.mem cp.Limb_ir.chip group) then
              flag ~chip:cp.Limb_ir.chip "limb-collective-pairing" pos
                (Printf.sprintf "collective %d emitted on chip %d outside its group [%s]" id
                   cp.Limb_ir.chip
                   (String.concat "; " (List.map string_of_int group)));
            match Hashtbl.find_opt colls id with
            | None ->
              Hashtbl.add colls id
                { cs_kind = kind; cs_group = group; cs_limbs = limbs; cs_chips = [ cp.Limb_ir.chip ] };
              coll_order := id :: !coll_order
            | Some s ->
              if s.cs_kind <> kind || s.cs_group <> group || s.cs_limbs <> limbs then
                flag ~chip:cp.Limb_ir.chip "limb-collective-pairing" pos
                  (Printf.sprintf "collective %d disagrees across chips on kind/group/limbs" id);
              if List.mem cp.Limb_ir.chip s.cs_chips then
                flag ~chip:cp.Limb_ir.chip "limb-collective-pairing" pos
                  (Printf.sprintf "collective %d emitted twice on chip %d" id cp.Limb_ir.chip)
              else s.cs_chips <- cp.Limb_ir.chip :: s.cs_chips
          end
          | _ -> ())
        cp.Limb_ir.instrs)
    limb.Limb_ir.chips;
  Hashtbl.iter
    (fun id s ->
      let have = List.sort compare s.cs_chips in
      let want = List.sort compare s.cs_group in
      if have <> want then
        flag "limb-collective-pairing" (-1)
          (Printf.sprintf "collective %d appears on chips [%s] but its group is [%s]" id
             (String.concat "; " (List.map string_of_int have))
             (String.concat "; " (List.map string_of_int want))))
    colls;
  (* deadlock smoke check: every chip pair must order its shared
     collectives identically *)
  let per_chip_ids =
    Array.map
      (fun (cp : Limb_ir.chip_program) ->
        List.filter_map
          (function Limb_ir.Collective { id; _ } -> Some id | _ -> None)
          cp.Limb_ir.instrs)
      limb.Limb_ir.chips
  in
  let n_chips = Array.length limb.Limb_ir.chips in
  for a = 0 to n_chips - 1 do
    for b = a + 1 to n_chips - 1 do
      let on_b = Hashtbl.create 16 and on_a = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace on_b id ()) per_chip_ids.(b);
      List.iter (fun id -> Hashtbl.replace on_a id ()) per_chip_ids.(a);
      let shared_a = List.filter (Hashtbl.mem on_b) per_chip_ids.(a) in
      let shared_b = List.filter (Hashtbl.mem on_a) per_chip_ids.(b) in
      if shared_a <> shared_b then
        flag "limb-collective-order" (-1)
          (Printf.sprintf
             "chips %d and %d order their shared collectives differently ([%s] vs [%s])" a b
             (String.concat "; " (List.map string_of_int shared_a))
             (String.concat "; " (List.map string_of_int shared_b)))
    done
  done;
  (* keyswitch-schedule coverage: with every value limb-parallel over
     the whole machine (single stream, >= 2 chips), the emitted
     collectives must be exactly what the pass's schedule implies —
     batched comms cover the batch once, non-final batched OA sites
     contribute their zero-payload placeholders, and each rescale adds
     one broadcast. *)
  if poly.Poly_ir.num_streams = 1 && cfg.Compile_config.chips >= 2 then begin
    let summary = Keyswitch_pass.comm_summary poly in
    let rescales =
      Array.fold_left
        (fun acc (n : Poly_ir.node) ->
          match n.Poly_ir.op with Poly_ir.PRescale _ -> acc + 1 | _ -> acc)
        0 poly.Poly_ir.nodes
    in
    let oa_lone = ref 0 and oa_batched = ref 0 in
    let oa_batches = Hashtbl.create 8 in
    List.iter
      (fun ((_ : Poly_ir.node), (k : Poly_ir.ks_site)) ->
        if k.Poly_ir.component = 0 && k.Poly_ir.algorithm = Poly_ir.Output_aggregation then
          match k.Poly_ir.batch with
          | None -> incr oa_lone
          | Some g ->
            incr oa_batched;
            Hashtbl.replace oa_batches g ())
      (Poly_ir.keyswitch_sites poly);
    let n_oa_batches = Hashtbl.length oa_batches in
    let expected_bcasts = summary.Keyswitch_pass.broadcasts + rescales in
    let expected_aggs = summary.Keyswitch_pass.aggregations in
    let expected_zero_aggs = 2 * (!oa_batched - n_oa_batches) in
    let actual_bcasts = ref 0 and actual_aggs = ref 0 and actual_zero_aggs = ref 0 in
    Hashtbl.iter
      (fun _ s ->
        match s.cs_kind with
        | Limb_ir.Broadcast -> incr actual_bcasts
        | Limb_ir.Aggregate_scatter ->
          if s.cs_limbs > 0 then incr actual_aggs else incr actual_zero_aggs)
      colls;
    if !actual_bcasts <> expected_bcasts then
      flag "limb-ks-schedule" (-1)
        (Printf.sprintf "%d broadcasts emitted; schedule requires %d (%d keyswitch + %d rescale)"
           !actual_bcasts expected_bcasts summary.Keyswitch_pass.broadcasts rescales);
    if !actual_aggs <> expected_aggs then
      flag "limb-ks-schedule" (-1)
        (Printf.sprintf "%d payload aggregations emitted; schedule requires %d" !actual_aggs
           expected_aggs);
    if !actual_zero_aggs <> expected_zero_aggs then
      flag "limb-ks-schedule" (-1)
        (Printf.sprintf
           "%d zero-payload aggregations emitted; batching implies %d (non-final batched sites)"
           !actual_zero_aggs expected_zero_aggs)
  end;
  List.rev !vs

(* --- isa stage ---------------------------------------------------------- *)

(* Does [ins] have the shape [Lower_isa] gives limb instruction [li]:
   the same unit, operand counts, collective and home address?  Which
   values its registers hold is the replay's to check. *)
let translates (li : Limb_ir.instr) (ins : I.instr) =
  let same = List.compare_lengths in
  match (li, ins) with
  | Limb_ir.Compute { fu = Limb_ir.Fu_add; srcs = [ _; _ ]; _ }, I.Valu { op = I.Op_add; _ }
  | Limb_ir.Compute { fu = Limb_ir.Fu_add; srcs = [ _ ]; _ }, I.Valu_scalar { op = I.Op_add; _ }
  | Limb_ir.Compute { fu = Limb_ir.Fu_mul; srcs = [ _; _ ]; _ }, I.Valu { op = I.Op_mul; _ }
  | Limb_ir.Compute { fu = Limb_ir.Fu_mul; srcs = [ _ ]; _ }, I.Valu_scalar { op = I.Op_mul; _ }
  | Limb_ir.Compute { fu = Limb_ir.Fu_ntt; srcs = [ _ ]; _ }, I.Vntt _
  | Limb_ir.Compute { fu = Limb_ir.Fu_intt; srcs = [ _ ]; _ }, I.Vintt _
  | Limb_ir.Compute { fu = Limb_ir.Fu_auto; srcs = [ _ ]; _ }, I.Vauto _
  | Limb_ir.Compute { fu = Limb_ir.Fu_transpose; srcs = [ _ ]; _ }, I.Vtranspose _
  | Limb_ir.Compute { fu = Limb_ir.Fu_prng; srcs = []; _ }, I.Vprng _ ->
    true
  | Limb_ir.Compute { fu = Limb_ir.Fu_bconv; srcs; macs; _ }, I.Vbconv b ->
    b.macs = macs && same srcs b.srcs = 0
  | Limb_ir.Load v, I.Vload { addr; _ } | Limb_ir.Store v, I.Vstore { addr; _ } -> addr = v
  | ( Limb_ir.Collective { kind = Limb_ir.Broadcast; group; limbs; id; sends; recvs },
      I.Net_bcast { group = g; limbs = l; coll_id; sends = s; recvs = r } )
  | ( Limb_ir.Collective { kind = Limb_ir.Aggregate_scatter; group; limbs; id; sends; recvs },
      I.Net_agg { group = g; limbs = l; coll_id; sends = s; recvs = r } ) ->
    id = coll_id && group = g && limbs = l && same sends s = 0 && same recvs r = 0
  | _ -> false

(* [f r v] for each register [r] that [isa_fold] visits in [ins], with
   the value [v] that [limb_fold] visits in the same slot of [li]. *)
let in_step isa_fold limb_fold ins li f =
  let vs = List.rev (limb_fold (fun vs v -> v :: vs) [] li) in
  ignore (isa_fold (fun vs r -> match vs with v :: vs -> f r v; vs | [] -> []) vs ins)

(* isa-translation: replay chip program [p] in step with its limb
   program [cp].  [shadow.(r)] is the value register [r] holds (-1:
   none).  HBM addresses are vreg ids: a value this chip does not
   compute (an input, an evalkey, another chip's value) sits at its own
   id from the start; any other address holds what was last stored
   there.  An ISA instruction either translates the next limb
   instruction or is spill traffic (a Vstore or Vload) the allocator
   inserted. *)
let check_translation ~flag ~n_vregs (cp : Limb_ir.chip_program) (p : I.program) =
  (* what a limb [Load] defines is read from its home, so it counts as
     not computed here *)
  let computed = Bytes.make (max 0 n_vregs) '\000' in
  let mark () v = if v >= 0 && v < n_vregs then Bytes.set computed v '\001' in
  List.iter (function Limb_ir.Load _ -> () | li -> Limb_ir.fold_writes mark () li) cp.Limb_ir.instrs;
  let stored = Hashtbl.create 64 in
  let hbm a =
    match Hashtbl.find_opt stored a with
    | Some _ as v -> v
    | None -> if a >= 0 && a < n_vregs && Bytes.get computed a = '\000' then Some a else None
  in
  (* out-of-range registers are isa-reg-bound's to report; here they
     hold nothing and keep nothing *)
  let shadow = Array.make (max 0 p.I.n_regs) (-1) in
  let held r = if r >= 0 && r < Array.length shadow then shadow.(r) else -1 in
  let hold r v = if r >= 0 && r < Array.length shadow then shadow.(r) <- v in
  let value v = if v < 0 then "nothing" else Printf.sprintf "vreg %d" v in
  let rest = ref cp.Limb_ir.instrs and at = ref 0 in
  let n = Array.length p.I.instrs in
  let i = ref 0 in
  while !i < n do
    let ins = p.I.instrs.(!i) in
    (match !rest with
    | li :: tl when translates li ins ->
      in_step I.fold_reads Limb_ir.fold_reads ins li (fun r v ->
          if held r <> v then
            flag !i
              (Printf.sprintf "%s reads r%d, which holds %s; limb instruction %d reads vreg %d"
                 (I.mnemonic ins) r (value (held r)) !at v));
      (match ins with
      | I.Vload { addr; _ } when hbm addr <> Some addr ->
        flag !i
          (Printf.sprintf "vload from address %d, which holds %s; limb instruction %d loads vreg %d"
             addr (value (Option.value ~default:(-1) (hbm addr))) !at addr)
      | I.Vstore { src; addr } -> Hashtbl.replace stored addr (held src)
      | _ -> ());
      in_step I.fold_writes Limb_ir.fold_writes ins li hold;
      rest := tl;
      incr at
    | _ -> (
      match ins with
      | I.Vstore { src; addr } -> Hashtbl.replace stored addr (held src)
      | I.Vload { dst; addr } -> (
        match hbm addr with
        | Some v -> hold dst v
        | None ->
          flag !i (Printf.sprintf "vload from address %d, which nothing stored to" addr);
          hold dst (-1))
      | _ ->
        (* out of step: the rest of the chip cannot be matched *)
        flag !i
          (match !rest with
          | [] -> Printf.sprintf "%s follows the last limb instruction" (I.mnemonic ins)
          | _ -> Printf.sprintf "%s does not translate limb instruction %d" (I.mnemonic ins) !at);
        rest := [];
        i := n));
    incr i
  done;
  if !rest <> [] then flag (-1) (Printf.sprintf "the program ends before limb instruction %d" !at)

let verify_isa (cfg : Compile_config.t) (regalloc : Regalloc.stats array) (limb : Limb_ir.t)
    (machine : I.machine_program) : violation list =
  let vs = ref [] in
  let flag ?chip rule node detail =
    vs := { v_stage = S_isa; v_rule = rule; v_node = node; v_chip = chip; v_detail = detail } :: !vs
  in
  let bound = Compile_config.registers cfg in
  if machine.I.limb_bytes <> Compile_config.limb_bytes cfg then
    flag "isa-regalloc-stats" (-1)
      (Printf.sprintf "machine limb_bytes %d disagrees with the configuration's %d"
         machine.I.limb_bytes (Compile_config.limb_bytes cfg));
  if machine.I.n <> Compile_config.n cfg then
    flag "isa-regalloc-stats" (-1)
      (Printf.sprintf "machine ring dimension %d disagrees with the configuration's %d"
         machine.I.n (Compile_config.n cfg));
  if Array.length regalloc <> Array.length machine.I.programs then
    flag "isa-regalloc-stats" (-1)
      (Printf.sprintf "%d regalloc stat records for %d chip programs" (Array.length regalloc)
         (Array.length machine.I.programs));
  Array.iter
    (fun (p : I.program) ->
      let chip = p.I.chip in
      let used = p.I.n_regs in
      if used > bound then
        flag ~chip "isa-reg-bound" (-1)
          (Printf.sprintf "program claims %d registers; the register file holds %d" used bound);
      let written = Array.make (max 0 used) false in
      Array.iteri
        (fun i instr ->
          let check_bound what r =
            if r < 0 || r >= used then begin
              flag ~chip "isa-reg-bound" i
                (Printf.sprintf "%s register r%d outside the program's [0, %d)" what r used);
              false
            end
            else true
          in
          I.fold_reads
            (fun () r ->
              if check_bound "source" r && not written.(r) then
                flag ~chip "isa-read-before-write" i
                  (Printf.sprintf "r%d read before any write" r))
            () instr;
          I.fold_writes (fun () r -> if check_bound "destination" r then written.(r) <- true) () instr)
        p.I.instrs)
    machine.I.programs;
  let chips = limb.Limb_ir.chips and programs = machine.I.programs in
  if Array.length chips <> Array.length programs then
    flag "isa-translation" (-1)
      (Printf.sprintf "%d chip programs for %d limb programs" (Array.length programs)
         (Array.length chips));
  for c = 0 to min (Array.length chips) (Array.length programs) - 1 do
    if programs.(c).I.chip <> chips.(c).Limb_ir.chip then
      flag ~chip:programs.(c).I.chip "isa-translation" (-1)
        (Printf.sprintf "program %d is chip %d's; its limb program is chip %d's" c
           programs.(c).I.chip chips.(c).Limb_ir.chip)
    else
      check_translation
        ~flag:(flag ~chip:programs.(c).I.chip "isa-translation")
        ~n_vregs:limb.Limb_ir.n_vregs chips.(c) programs.(c)
  done;
  Array.iteri
    (fun chip (st : Regalloc.stats) ->
      if chip < Array.length machine.I.programs then begin
        let p = machine.I.programs.(chip) in
        let vloads = ref 0 and vstores = ref 0 in
        Array.iter
          (fun instr ->
            match instr with
            | I.Vload _ -> incr vloads
            | I.Vstore _ -> incr vstores
            | _ -> ())
          p.I.instrs;
        if st.Regalloc.spills < 0 || st.Regalloc.reloads < 0 || st.Regalloc.peak_live < 0 then
          flag ~chip "isa-regalloc-stats" (-1) "negative regalloc statistic";
        if st.Regalloc.spills > !vstores then
          flag ~chip "isa-regalloc-stats" (-1)
            (Printf.sprintf "%d spills reported but only %d vstore instructions emitted"
               st.Regalloc.spills !vstores);
        if st.Regalloc.reloads > !vloads then
          flag ~chip "isa-regalloc-stats" (-1)
            (Printf.sprintf "%d reloads reported but only %d vload instructions emitted"
               st.Regalloc.reloads !vloads);
        if st.Regalloc.peak_live > bound then
          flag ~chip "isa-regalloc-stats" (-1)
            (Printf.sprintf "peak of %d live values exceeds the %d-register file"
               st.Regalloc.peak_live bound)
      end)
    regalloc;
  List.rev !vs

(* --- driver ------------------------------------------------------------- *)

let all ?rotation_keys ~(cfg : Compile_config.t) ~(ct : Ct_ir.t) ~(poly : Poly_ir.t)
    ~(limb : Limb_ir.t) ~(machine : I.machine_program) ~(regalloc : Regalloc.stats array) () :
    violation list =
  let stage name f =
    Tel.Span.with_ ~cat:"verify" name (fun () ->
        let vs = f () in
        Tel.Span.add_args [ ("violations", Tel.Int (List.length vs)) ];
        vs)
  in
  stage "verify_ct" (fun () -> verify_ct ?rotation_keys cfg ct)
  @ stage "verify_poly" (fun () -> verify_poly cfg poly)
  @ stage "verify_limb" (fun () -> verify_limb cfg poly limb)
  @ stage "verify_isa" (fun () -> verify_isa cfg regalloc limb machine)
