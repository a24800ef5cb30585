(* Static verifier: clean passes over every registered kernel on the
   paper's machine shapes, plus one seeded corruption per rule proving
   each check actually fires (mutation tests — a verifier nobody has
   seen reject anything verifies nothing). *)

open Cinnamon_compiler
open Cinnamon_ir
module Specs = Cinnamon_workloads.Specs
module Runner = Cinnamon_workloads.Runner
module Kernels = Cinnamon_workloads.Kernels
module Error = Cinnamon_util.Error
module I = Cinnamon_isa.Isa

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Did [rule] fire, with [detail] in its message when given? *)
let fired ?(detail = "") rule violations =
  List.exists (fun v -> v.Verify.v_rule = rule && contains ~sub:detail v.Verify.v_detail) violations

let show violations =
  String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_violation) violations)

let check_clean what violations =
  Alcotest.(check string) (what ^ " is violation-free") "" (show violations)

let check_fires ?detail rule violations =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires (got: %s)" rule (show violations))
    true (fired ?detail rule violations)

(* --------------------------------------------------- clean passes *)

(* Every registered kernel, on a 4-, 8- and 12-chip machine (the
   whole-machine [widened] groups, so the 8/12-chip lowerings are the
   ones actually checked). *)
let test_clean_all_kernels () =
  let systems =
    [ Runner.cinnamon_4; Runner.widened Runner.cinnamon_8; Runner.widened Runner.cinnamon_12 ]
  in
  List.iter
    (fun sys ->
      List.iter
        (fun (name, kernel) ->
          let r = Runner.compile_kernel sys kernel in
          check_clean (Printf.sprintf "%s on %d chips" name sys.Runner.group_chips)
            (Pipeline.verify r))
        Specs.kernels)
    systems

(* Single-chip lowering (no collectives at all). *)
let test_clean_single_chip () =
  let r = Runner.compile_kernel Runner.cinnamon_1 Specs.K_attention in
  check_clean "attention on 1 chip" (Pipeline.verify r)

(* Alternative keyswitch policies: every algorithm/pass-mode variant
   must still lower to verifiable programs. *)
let test_clean_policies () =
  let variants =
    [ ("no-pass", Compile_config.paper ~pass_mode:Compile_config.No_pass ());
      ("ib-only", Compile_config.paper ~pass_mode:Compile_config.Pass_ib_only ());
      ( "cifher",
        Compile_config.paper ~default_ks:Poly_ir.Cifher_broadcast
          ~pass_mode:Compile_config.No_pass () );
      ( "seq",
        Compile_config.paper ~default_ks:Poly_ir.Seq ~pass_mode:Compile_config.No_pass () ) ]
  in
  List.iter
    (fun (name, config) ->
      let r = Runner.compile_kernel ~config Runner.cinnamon_4 Specs.K_helr_iter in
      check_clean ("helr-iter under " ^ name) (Pipeline.verify r))
    variants

(* Programmer-annotated streams (the bootstrap EvalMod pair) exercise
   the multi-stream placement paths. *)
let test_clean_progpar () =
  let config = Compile_config.paper ~progpar:true () in
  let r =
    Runner.compile_kernel ~config Runner.cinnamon_4 (Specs.K_bootstrap Kernels.boot_shape_13)
  in
  check_clean "progpar bootstrap-13" (Pipeline.verify r)

(* A hand-written DSL program (a BSGS matvec) rather than a zoo
   kernel. *)
let test_clean_bsgs_matvec () =
  let prog =
    Cinnamon.Dsl.program (fun p ->
        let v = Cinnamon.Dsl.input p "v" in
        Cinnamon.Dsl.output (Cinnamon.Dsl.bsgs_matvec v ~diagonals:9 ~name:"m") "out")
  in
  check_clean "bsgs matvec on 4 chips" (Pipeline.verify (Pipeline.compile (Compile_config.paper ~chips:4 ()) prog))

(* compile ~verify:true is the raising front door. *)
let test_compile_verify_flag () =
  let r = Pipeline.compile ~verify:true (Compile_config.paper ()) (Specs.kernel_program Specs.K_conv) in
  Alcotest.(check bool) "compiled" true (Ct_ir.size r.Pipeline.ct > 0)

(* --------------------------------------------------- ct mutations *)

let small_kernel () = Runner.compile_kernel Runner.cinnamon_4 (Specs.K_matvec 10)

let test_mut_ct_def_before_use () =
  let r = small_kernel () in
  let nodes = r.Pipeline.ct.Ct_ir.nodes in
  let i =
    (* first node with an operand, not the last node *)
    let rec find i =
      if Ct_ir.operands nodes.(i).Ct_ir.op <> [] && i < Array.length nodes - 1 then i
      else find (i + 1)
    in
    find 0
  in
  nodes.(i) <- { (nodes.(i)) with Ct_ir.op = Ct_ir.Conjugate (Array.length nodes - 1) };
  check_fires "ct-def-before-use" (Pipeline.verify r)

let test_mut_ct_level () =
  let r = small_kernel () in
  let nodes = r.Pipeline.ct.Ct_ir.nodes in
  nodes.(1) <- { (nodes.(1)) with Ct_ir.level = nodes.(1).Ct_ir.level + 1 };
  check_fires "ct-level" (Pipeline.verify r)

let test_mut_ct_stream_range () =
  let r = small_kernel () in
  let nodes = r.Pipeline.ct.Ct_ir.nodes in
  nodes.(0) <- { (nodes.(0)) with Ct_ir.stream = 99 };
  check_fires "ct-stream-range" (Pipeline.verify r)

let test_mut_ct_rotation_key () =
  let r = small_kernel () in
  (* matvec rotates by several amounts; a key set holding none of them
     must be rejected *)
  check_fires "ct-rotation-key" (Pipeline.verify ~rotation_keys:[ 123456 ] r);
  check_clean "matvec with unrestricted keys" (Pipeline.verify r)

(* Repeated self-addition gains one noise bit per node (and costs no
   levels), so a 1500-deep chain sails past the modulus chain's
   ~1400-bit capacity. *)
let test_mut_ct_noise_budget () =
  let b = Ct_ir.builder ~top_level:51 ~boot_level:51 () in
  let x = ref (Ct_ir.emit b (Ct_ir.Input "x")) in
  for _ = 1 to 1500 do
    x := Ct_ir.emit b (Ct_ir.Add (!x, !x))
  done;
  ignore (Ct_ir.emit b (Ct_ir.Output (!x, "y")));
  let r = Pipeline.compile (Compile_config.paper ~chips:1 ()) (Ct_ir.finish b) in
  check_fires "ct-noise-budget" (Pipeline.verify r)

(* --------------------------------------------------- poly mutations *)

let test_mut_poly_limb_bound () =
  let r = small_kernel () in
  let nodes = r.Pipeline.poly.Poly_ir.nodes in
  nodes.(0) <- { (nodes.(0)) with Poly_ir.limbs = 0 };
  check_fires "poly-limb-bound" (Pipeline.verify r)

let test_mut_poly_rescale_step () =
  let r = small_kernel () in
  let nodes = r.Pipeline.poly.Poly_ir.nodes in
  let i =
    let found = ref (-1) in
    Array.iteri
      (fun i n ->
        match n.Poly_ir.op with Poly_ir.PRescale _ when !found < 0 -> found := i | _ -> ())
      nodes;
    !found
  in
  Alcotest.(check bool) "kernel has a rescale" true (i >= 0);
  nodes.(i) <- { (nodes.(i)) with Poly_ir.limbs = nodes.(i).Poly_ir.limbs - 1 };
  check_fires "poly-rescale-step" (Pipeline.verify r)

let test_mut_poly_ks_pair () =
  let r = small_kernel () in
  let sites = Poly_ir.keyswitch_sites r.Pipeline.poly in
  let _, k = List.find (fun (_, k) -> k.Poly_ir.component = 1) sites in
  k.Poly_ir.algorithm <-
    (if k.Poly_ir.algorithm = Poly_ir.Seq then Poly_ir.Input_broadcast else Poly_ir.Seq);
  check_fires "poly-ks-pair" (Pipeline.verify r)

let test_mut_poly_ks_batch () =
  let r = small_kernel () in
  let sites = Poly_ir.keyswitch_sites r.Pipeline.poly in
  (* exile one component-0 site into a fresh singleton batch *)
  let _, k = List.find (fun (_, k) -> k.Poly_ir.component = 0) sites in
  k.Poly_ir.batch <- Some 999;
  check_fires "poly-ks-batch" (Pipeline.verify r)

(* --------------------------------------------------- limb mutations *)

let test_mut_limb_chip_ownership () =
  let r = small_kernel () in
  let chips = r.Pipeline.limb.Limb_ir.chips in
  (* replay chip 0's first compute on chip 1: its dst is now defined on
     two chips *)
  let c =
    List.find_map
      (function Limb_ir.Compute c -> Some c | _ -> None)
      chips.(0).Limb_ir.instrs
    |> Option.get
  in
  chips.(1) <-
    { (chips.(1)) with Limb_ir.instrs = Limb_ir.Compute c :: chips.(1).Limb_ir.instrs };
  check_fires "limb-chip-ownership" (Pipeline.verify r)

let test_mut_limb_use_before_def () =
  let r = small_kernel () in
  let chips = r.Pipeline.limb.Limb_ir.chips in
  let instrs = chips.(0).Limb_ir.instrs in
  (* find a compute whose dst is read later on the same chip, and move
     it to the end of the program *)
  let reads v i = Limb_ir.fold_reads (fun found u -> found || u = v) false i in
  let target =
    List.find_map
      (function
        | Limb_ir.Compute c when List.exists (reads c.Limb_ir.dst) instrs -> Some c
        | _ -> None)
      instrs
    |> Option.get
  in
  let without = List.filter (fun i -> i <> Limb_ir.Compute target) instrs in
  chips.(0) <- { (chips.(0)) with Limb_ir.instrs = without @ [ Limb_ir.Compute target ] };
  check_fires "limb-use-before-def" (Pipeline.verify r)

let first_collective_id (limb : Limb_ir.t) =
  Array.to_list limb.Limb_ir.chips
  |> List.find_map (fun cp ->
         List.find_map
           (function Limb_ir.Collective { id; _ } -> Some id | _ -> None)
           cp.Limb_ir.instrs)
  |> Option.get

let test_mut_limb_collective_pairing () =
  let r = small_kernel () in
  let chips = r.Pipeline.limb.Limb_ir.chips in
  let id = first_collective_id r.Pipeline.limb in
  (* drop chip 0's half of the collective: unmatched transfer *)
  chips.(0) <-
    { (chips.(0)) with
      Limb_ir.instrs =
        List.filter
          (function Limb_ir.Collective { id = i; _ } -> i <> id | _ -> true)
          chips.(0).Limb_ir.instrs
    };
  check_fires "limb-collective-pairing" (Pipeline.verify r)

let test_mut_limb_collective_order () =
  let r = small_kernel () in
  let chips = r.Pipeline.limb.Limb_ir.chips in
  (* swap chip 0's first two collectives: its neighbours now see the
     shared sequence in the opposite order (the ring-deadlock shape) *)
  let is_coll = function Limb_ir.Collective _ -> true | _ -> false in
  let colls = List.filter is_coll chips.(0).Limb_ir.instrs in
  Alcotest.(check bool) "chip 0 has two collectives" true (List.length colls >= 2);
  let c0 = List.nth colls 0 and c1 = List.nth colls 1 in
  let swapped =
    List.map
      (fun i -> if i = c0 then c1 else if i = c1 then c0 else i)
      chips.(0).Limb_ir.instrs
  in
  chips.(0) <- { (chips.(0)) with Limb_ir.instrs = swapped };
  check_fires "limb-collective-order" (Pipeline.verify r)

let test_mut_limb_ks_schedule () =
  let r = small_kernel () in
  let chips = r.Pipeline.limb.Limb_ir.chips in
  let id = first_collective_id r.Pipeline.limb in
  (* erase one collective from EVERY chip: pairing stays consistent but
     the schedule's collective count no longer adds up *)
  Array.iteri
    (fun i cp ->
      chips.(i) <-
        { cp with
          Limb_ir.instrs =
            List.filter
              (function Limb_ir.Collective { id = j; _ } -> j <> id | _ -> true)
              cp.Limb_ir.instrs
        })
    chips;
  check_fires "limb-ks-schedule" (Pipeline.verify r)

(* --------------------------------------------------- isa mutations *)

let test_mut_isa_reg_bound () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  let bound = Compile_config.registers r.Pipeline.cfg in
  let i =
    let found = ref (-1) in
    Array.iteri
      (fun i instr -> match instr with I.Valu _ when !found < 0 -> found := i | _ -> ())
      p.I.instrs;
    !found
  in
  Alcotest.(check bool) "program has an alu op" true (i >= 0);
  (match p.I.instrs.(i) with
  | I.Valu v -> p.I.instrs.(i) <- I.Valu { v with dst = bound + 5 }
  | _ -> assert false);
  check_fires "isa-reg-bound" (Pipeline.verify r)

let test_mut_isa_read_before_write () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  (* drop the program's first register write: whoever read that
     register now reads it cold *)
  let instrs = Array.to_list p.I.instrs in
  let dropped = ref false in
  let instrs =
    List.filter
      (fun i ->
        if (not !dropped) && I.fold_writes (fun _ _ -> true) false i then begin
          dropped := true;
          false
        end
        else true)
      instrs
  in
  r.Pipeline.machine.I.programs.(0) <- { p with I.instrs = Array.of_list instrs };
  check_fires "isa-read-before-write" (Pipeline.verify r)

let test_mut_isa_regalloc_stats () =
  let r = small_kernel () in
  r.Pipeline.regalloc.(0) <-
    { r.Pipeline.regalloc.(0) with Regalloc.spills = 10_000_000 };
  check_fires "isa-regalloc-stats" (Pipeline.verify r)

(* A read of a register nothing wrote, at the very start of chip 0. *)
let test_mut_isa_never_written_read () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  r.Pipeline.machine.I.programs.(0) <-
    { p with I.instrs = Array.append [| I.Valu { op = I.Op_add; dst = 1; a = 0; b = 0 } |] p.I.instrs };
  check_fires "isa-read-before-write" (Pipeline.verify r)

(* Chip 0 leaves out its part in a collective its peers still run. *)
let test_mut_isa_missing_participant () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  let i =
    let rec find i = match p.I.instrs.(i) with I.Net_bcast _ | I.Net_agg _ -> i | _ -> find (i + 1) in
    find 0
  in
  let instrs = Array.to_list p.I.instrs |> List.filteri (fun j _ -> j <> i) in
  r.Pipeline.machine.I.programs.(0) <- { p with I.instrs = Array.of_list instrs };
  check_fires ~detail:"does not translate" "isa-translation" (Pipeline.verify r)

(* An instruction's operands, reads then writes, from its IR's folds. *)
let operand_list fold_reads fold_writes ins =
  let cons l x = x :: l in
  List.rev (fold_writes cons (fold_reads cons [] ins) ins)

let map_regs f = function
  | I.Valu x -> I.Valu { x with dst = f x.dst; a = f x.a; b = f x.b }
  | I.Valu_scalar x -> I.Valu_scalar { x with dst = f x.dst; a = f x.a }
  | I.Vntt x -> I.Vntt { dst = f x.dst; src = f x.src }
  | I.Vintt x -> I.Vintt { dst = f x.dst; src = f x.src }
  | I.Vauto x -> I.Vauto { x with dst = f x.dst; src = f x.src }
  | I.Vbconv x -> I.Vbconv { x with dst = f x.dst; srcs = List.map f x.srcs }
  | I.Vtranspose x -> I.Vtranspose { dst = f x.dst; src = f x.src }
  | I.Vprng x -> I.Vprng { dst = f x.dst }
  | I.Vload x -> I.Vload { x with dst = f x.dst }
  | I.Vstore x -> I.Vstore { x with src = f x.src }
  | I.Net_bcast x -> I.Net_bcast { x with sends = List.map f x.sends; recvs = List.map f x.recvs }
  | I.Net_agg x -> I.Net_agg { x with sends = List.map f x.sends; recvs = List.map f x.recvs }

(* The naming the ISA had before it carried the allocator's registers:
   each value, by first appearance, gets register k mod num_regs.  The
   allocation is replayed to learn which value each operand holds. *)
let test_mut_isa_rotating_names () =
  let r = small_kernel () in
  let num_regs = Compile_config.registers r.Pipeline.cfg in
  Array.iteri
    (fun c cp ->
      let p = r.Pipeline.machine.I.programs.(c) in
      let names = Hashtbl.create 1024 in
      let name v =
        match Hashtbl.find_opt names v with
        | Some x -> x
        | None ->
          let x = Hashtbl.length names mod num_regs in
          Hashtbl.add names v x;
          x
      in
      let j = ref 0 in
      let emit ins _ _ =
        let isa = p.I.instrs.(!j) in
        let value_of =
          List.combine
            (operand_list I.fold_reads I.fold_writes isa)
            (operand_list Limb_ir.fold_reads Limb_ir.fold_writes ins)
        in
        p.I.instrs.(!j) <- map_regs (fun reg -> name (List.assoc reg value_of)) isa;
        incr j
      in
      ignore (Regalloc.allocate ~num_regs ~emit cp))
    r.Pipeline.limb.Limb_ir.chips;
  check_fires ~detail:"which holds" "isa-translation" (Pipeline.verify r)

let test_mut_isa_swapped_operands () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  let i =
    let rec find i =
      match p.I.instrs.(i) with I.Valu { a; b; _ } when a <> b -> i | _ -> find (i + 1)
    in
    find 0
  in
  (match p.I.instrs.(i) with
  | I.Valu v -> p.I.instrs.(i) <- I.Valu { v with a = v.b; b = v.a }
  | _ -> assert false);
  check_fires ~detail:"which holds" "isa-translation" (Pipeline.verify r)

(* Chip 0's first reload (a vload from an address stored to earlier)
   reads from an address past every value's home instead. *)
let test_mut_isa_unstored_reload () =
  let r = small_kernel () in
  let p = r.Pipeline.machine.I.programs.(0) in
  let stored = Hashtbl.create 64 in
  let i =
    let rec find i =
      match p.I.instrs.(i) with
      | I.Vstore { addr; _ } ->
        Hashtbl.replace stored addr ();
        find (i + 1)
      | I.Vload { addr; _ } when Hashtbl.mem stored addr -> i
      | _ -> find (i + 1)
    in
    find 0
  in
  (match p.I.instrs.(i) with
  | I.Vload v -> p.I.instrs.(i) <- I.Vload { v with addr = r.Pipeline.limb.Limb_ir.n_vregs + 7 }
  | _ -> assert false);
  check_fires ~detail:"nothing stored to" "isa-translation" (Pipeline.verify r)

(* --------------------------------------------------- error API *)

let test_error_exit_codes () =
  List.iter
    (fun (kind, code) -> Alcotest.(check int) (Error.kind_name kind) code (Error.exit_code kind))
    [ (Error.Invalid_input, 2); (Error.Unknown_name, 3); (Error.Capacity, 4);
      (Error.Verification, 5); (Error.Internal, 70) ]

let test_error_suggest () =
  Alcotest.(check (option string))
    "close typo" (Some "bootstrap-13")
    (Error.suggest ~candidates:[ "bootstrap-13"; "attention" ] "botstrap-13");
  Alcotest.(check (option string))
    "nothing close" None
    (Error.suggest ~candidates:[ "bootstrap-13" ] "xyzzy")

let test_find_kernel_suggestion () =
  match Specs.find_kernel "botstrap-13" with
  | Ok _ -> Alcotest.fail "typo resolved"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "did-you-mean in %S" msg)
      true
      (contains ~sub:"did you mean \"bootstrap-13\"" msg)

let test_find_system_suggestion () =
  match Runner.find_system "cinamon-4" with
  | Ok _ -> Alcotest.fail "typo resolved"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "did-you-mean in %S" msg)
      true
      (contains ~sub:"did you mean \"cinnamon-4\"" msg)

(* Regalloc refuses instructions whose operands alone exceed the file,
   with a typed capacity error. *)
let test_regalloc_capacity_error () =
  let cfg =
    Compile_config.paper ~chips:1 ~rf_bytes:1 () (* registers() floors at 8 *)
  in
  let prog = Specs.kernel_program (Specs.K_matvec 4) in
  match Pipeline.compile cfg prog with
  | exception Error.Error e ->
    Alcotest.(check int) "capacity exit code" 4 (Error.exit_code e.Error.kind)
  | _ ->
    (* 8 registers may actually suffice; the contract is only that a
       failure, if any, is typed *)
    ()

let suite =
  let t name fn = Alcotest.test_case name `Quick fn in
  let slow name fn = Alcotest.test_case name `Slow fn in
  ( "verify",
    [ slow "clean: all kernels x 4/8/12 chips" test_clean_all_kernels;
      t "clean: single chip" test_clean_single_chip;
      t "clean: keyswitch policies" test_clean_policies;
      t "clean: progpar bootstrap" test_clean_progpar;
      t "clean: bsgs matvec" test_clean_bsgs_matvec;
      t "compile ~verify:true" test_compile_verify_flag;
      t "mutation: ct-def-before-use" test_mut_ct_def_before_use;
      t "mutation: ct-level" test_mut_ct_level;
      t "mutation: ct-stream-range" test_mut_ct_stream_range;
      t "mutation: ct-rotation-key" test_mut_ct_rotation_key;
      t "mutation: ct-noise-budget" test_mut_ct_noise_budget;
      t "mutation: poly-limb-bound" test_mut_poly_limb_bound;
      t "mutation: poly-rescale-step" test_mut_poly_rescale_step;
      t "mutation: poly-ks-pair" test_mut_poly_ks_pair;
      t "mutation: poly-ks-batch" test_mut_poly_ks_batch;
      t "mutation: limb-chip-ownership" test_mut_limb_chip_ownership;
      t "mutation: limb-use-before-def" test_mut_limb_use_before_def;
      t "mutation: limb-collective-pairing" test_mut_limb_collective_pairing;
      t "mutation: limb-collective-order" test_mut_limb_collective_order;
      t "mutation: limb-ks-schedule" test_mut_limb_ks_schedule;
      t "mutation: isa-reg-bound" test_mut_isa_reg_bound;
      t "mutation: isa-read-before-write" test_mut_isa_read_before_write;
      t "mutation: isa-regalloc-stats" test_mut_isa_regalloc_stats;
      t "mutation: never-written read" test_mut_isa_never_written_read;
      t "mutation: missing participant" test_mut_isa_missing_participant;
      t "mutation: rotating names" test_mut_isa_rotating_names;
      t "mutation: swapped operands" test_mut_isa_swapped_operands;
      t "mutation: unstored reload" test_mut_isa_unstored_reload;
      t "error: exit codes" test_error_exit_codes;
      t "error: suggestions" test_error_suggest;
      t "error: find_kernel did-you-mean" test_find_kernel_suggestion;
      t "error: find_system did-you-mean" test_find_system_suggestion;
      t "error: regalloc capacity" test_regalloc_capacity_error ] )
