(* Tests for the compiler: keyswitch pass pattern detection and the
   algorithmic communication claims, limb lowering, Belady register
   allocation, ISA translation, and the full pipeline. *)

open Cinnamon_ir
open Cinnamon_compiler
module Dsl = Cinnamon.Dsl

let cfg4 = Compile_config.paper ~chips:4 ()

(* --- keyswitch pass: the paper's algorithmic analysis (§7.4) ------------- *)

(* Pattern: r rotations of one ciphertext. Cinnamon: 1 broadcast. *)
let rotations_program r =
  Dsl.program (fun p ->
      let v = Dsl.input p "v" in
      for i = 1 to r do
        Dsl.output (Dsl.mul_plain (Dsl.rotate v i) (Printf.sprintf "w%d" i)) (Printf.sprintf "o%d" i)
      done)

let test_pattern_a_one_broadcast () =
  let poly = Lower_poly.lower cfg4 (rotations_program 8) in
  let report = Keyswitch_pass.run cfg4 poly in
  Alcotest.(check int) "one batch group" 1 report.Keyswitch_pass.pattern_a_groups;
  Alcotest.(check int) "all 8 sites batched" 8 report.Keyswitch_pass.pattern_a_sites;
  let comm = Keyswitch_pass.comm_summary poly in
  Alcotest.(check int) "exactly 1 broadcast" 1 comm.Keyswitch_pass.broadcasts;
  Alcotest.(check int) "no aggregations" 0 comm.Keyswitch_pass.aggregations

(* Pattern: r rotations of r ciphertexts followed by aggregation.
   Cinnamon: 2 aggregations. *)
let rotate_aggregate_program r =
  Dsl.program (fun p ->
      let acc = ref None in
      for i = 1 to r do
        let v = Dsl.input p (Printf.sprintf "v%d" i) in
        let t = Dsl.rotate v i in
        acc := Some (match !acc with None -> t | Some a -> Dsl.add a t)
      done;
      Dsl.output (Option.get !acc) "out")

let test_pattern_b_two_aggregations () =
  let poly = Lower_poly.lower cfg4 (rotate_aggregate_program 8) in
  let report = Keyswitch_pass.run cfg4 poly in
  Alcotest.(check int) "one batch group" 1 report.Keyswitch_pass.pattern_b_groups;
  Alcotest.(check int) "all 8 sites batched" 8 report.Keyswitch_pass.pattern_b_sites;
  let comm = Keyswitch_pass.comm_summary poly in
  Alcotest.(check int) "exactly 2 aggregations" 2 comm.Keyswitch_pass.aggregations;
  Alcotest.(check int) "no broadcasts" 0 comm.Keyswitch_pass.broadcasts

(* CiFHER on the same pattern: O(r) broadcasts (3 per keyswitch). *)
let test_cifher_is_linear_in_r () =
  let cfg =
    { cfg4 with Compile_config.default_ks = Poly_ir.Cifher_broadcast;
                pass_mode = Compile_config.No_pass }
  in
  let poly = Lower_poly.lower cfg (rotations_program 8) in
  ignore (Keyswitch_pass.run cfg poly);
  let comm = Keyswitch_pass.comm_summary poly in
  Alcotest.(check int) "3 broadcasts per keyswitch" 24 comm.Keyswitch_pass.broadcasts

let test_bsgs_gets_both_patterns () =
  (* a BSGS matvec must produce one input-broadcast batch (babies) and
     one output-aggregation batch (giants) *)
  let prog =
    Dsl.program (fun p ->
        let v = Dsl.input p "v" in
        Dsl.output (Dsl.bsgs_matvec v ~diagonals:16 ~name:"m") "out")
  in
  let poly = Lower_poly.lower cfg4 prog in
  let report = Keyswitch_pass.run cfg4 poly in
  Alcotest.(check bool) "has pattern A" true (report.Keyswitch_pass.pattern_a_groups >= 1);
  Alcotest.(check bool) "has pattern B" true (report.Keyswitch_pass.pattern_b_groups >= 1)

let test_pass_disabled_uses_default () =
  let cfg = { cfg4 with Compile_config.pass_mode = Compile_config.No_pass } in
  let poly = Lower_poly.lower cfg (rotations_program 4) in
  let report = Keyswitch_pass.run cfg poly in
  Alcotest.(check int) "no batches" 0 report.Keyswitch_pass.pattern_a_groups;
  Alcotest.(check int) "all unbatched" 4 report.Keyswitch_pass.unbatched_sites

let test_ib_only_mode () =
  let cfg = { cfg4 with Compile_config.pass_mode = Compile_config.Pass_ib_only } in
  let poly = Lower_poly.lower cfg (rotate_aggregate_program 6) in
  ignore (Keyswitch_pass.run cfg poly);
  (* no OA sites may exist in ib-only mode *)
  let has_oa =
    List.exists
      (fun (_, (k : Poly_ir.ks_site)) -> k.Poly_ir.algorithm = Poly_ir.Output_aggregation)
      (Poly_ir.keyswitch_sites poly)
  in
  Alcotest.(check bool) "no output aggregation" false has_oa

(* --- communication volume scaling (the 32x bandwidth claim) -------------- *)

let test_comm_reduction_vs_cifher () =
  (* per-bootstrap traffic: CiFHER-style vs Cinnamon pass *)
  let prog = Cinnamon_workloads.Kernels.bootstrap_program () in
  let compile cfg = Pipeline.compile cfg prog in
  let cifher_cfg =
    { cfg4 with Compile_config.default_ks = Poly_ir.Cifher_broadcast;
                pass_mode = Compile_config.No_pass }
  in
  let cifher = (compile cifher_cfg).Pipeline.comm.Limb_ir.bytes_moved in
  let cinnamon = (compile cfg4).Pipeline.comm.Limb_ir.bytes_moved in
  let ratio = Float.of_int cifher /. Float.of_int cinnamon in
  Alcotest.(check bool)
    (Printf.sprintf "large reduction (%.2fx; paper: 2.25x traffic + 7x pass)" ratio)
    true (ratio > 2.0)

(* --- limb lowering --------------------------------------------------------- *)

let test_round_robin_placement () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" and b = Dsl.input p "b" in
        Dsl.output (Dsl.add a b) "out")
  in
  let limb, _ = Lower_limb.lower cfg4 (Lower_poly.lower cfg4 prog) in
  (* 52 limbs round-robin over 4 chips: 13 adds per chip per poly add; two
     poly adds -> 26 add instructions per chip *)
  Array.iter
    (fun cp ->
      let s = Limb_ir.compute_stats_chip cp in
      let adds = try List.assoc Limb_ir.Fu_add s.Limb_ir.per_fu with Not_found -> 0 in
      Alcotest.(check int) "balanced adds" 26 adds)
    limb.Limb_ir.chips

let test_collectives_consistent () =
  let r = Pipeline.compile cfg4 (rotations_program 4) in
  Alcotest.(check string) "no violations" ""
    (String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_violation) (Pipeline.verify r)))

(* A compute whose source count its unit's instruction does not take
   is a typed error (it used to become a PRNG). *)
let test_malformed_compute_is_typed () =
  let b = Limb_ir.builder ~chips:1 ~limb_bytes:1024 in
  let x = Limb_ir.load b ~chip:0 and y = Limb_ir.load b ~chip:0 in
  let dst = Limb_ir.fresh_vreg b in
  Limb_ir.push b 0 (Limb_ir.Compute { fu = Limb_ir.Fu_ntt; dst; srcs = [ x; y ]; macs = 1 });
  match Lower_isa.translate ~num_regs:8 ~n:64 ~limb_bytes:1024 (Limb_ir.finish b) with
  | _ -> Alcotest.fail "a two-source NTT was translated"
  | exception Cinnamon_util.Error.Error e ->
    Alcotest.(check string) "kind" "invalid-input" (Cinnamon_util.Error.kind_name e.Cinnamon_util.Error.kind)

(* --- Belady register allocation --------------------------------------------- *)

let straight_line_program n_values =
  (* chain of adds: value i depends on i-1 *)
  let b = Limb_ir.builder ~chips:1 ~limb_bytes:1024 in
  let v = ref (Limb_ir.load b ~chip:0) in
  for _ = 1 to n_values do
    v := Limb_ir.compute b ~chip:0 ~fu:Limb_ir.Fu_add [ !v ]
  done;
  Limb_ir.store b ~chip:0 !v;
  Limb_ir.finish b

let allocate ~num_regs cp = Regalloc.allocate ~num_regs ~emit:(fun _ _ _ -> ()) cp

let test_regalloc_no_spill_when_fits () =
  let t = straight_line_program 50 in
  let a = allocate ~num_regs:8 t.Limb_ir.chips.(0) in
  Alcotest.(check int) "no spills for a chain" 0 a.Regalloc.stats.Regalloc.spills

let wide_program width =
  (* [width] long-lived values all consumed at the end *)
  let b = Limb_ir.builder ~chips:1 ~limb_bytes:1024 in
  let vs = List.init width (fun _ -> Limb_ir.load b ~chip:0) in
  let acc = ref (List.hd vs) in
  List.iter (fun v -> acc := Limb_ir.compute b ~chip:0 ~fu:Limb_ir.Fu_add [ !acc; v ]) (List.tl vs);
  Limb_ir.store b ~chip:0 !acc;
  Limb_ir.finish b

let test_regalloc_spills_when_over_capacity () =
  let t = wide_program 64 in
  let a = allocate ~num_regs:8 t.Limb_ir.chips.(0) in
  Alcotest.(check bool) "spills occur" true
    (a.Regalloc.stats.Regalloc.spills > 0 || a.Regalloc.stats.Regalloc.reloads > 0)

let test_regalloc_def_before_use () =
  (* after allocation + ISA translation the stream must be well-formed *)
  let prog = rotations_program 3 in
  let r = Pipeline.compile cfg4 prog in
  Alcotest.(check int) "no violations" 0 (List.length (Pipeline.verify r))

let test_regalloc_belady_beats_small_file () =
  (* a bigger register file must not increase spills *)
  let t = wide_program 64 in
  let small = allocate ~num_regs:8 t.Limb_ir.chips.(0) in
  let big = allocate ~num_regs:128 t.Limb_ir.chips.(0) in
  Alcotest.(check bool) "monotone in capacity" true
    (big.Regalloc.stats.Regalloc.spills <= small.Regalloc.stats.Regalloc.spills)

(* --- the allocator against the linear-scan oracle ---------------------------- *)

module Regalloc_ref = Cinnamon_oracle.Regalloc_ref

(* Every emitted instruction with its registers, the register count and
   the statistics, or the typed error, of one allocation. *)
let allocation alloc ~num_regs cp =
  let out = ref [] in
  let count n _ = n + 1 in
  let emit ins regs k =
    out := (ins, Array.sub regs k (Limb_ir.fold_writes count (Limb_ir.fold_reads count 0 ins) ins)) :: !out
  in
  match alloc ~num_regs ~emit cp with
  | (a : Regalloc.assignment) -> Ok (List.rev !out, a.Regalloc.n_regs, a.Regalloc.stats)
  | exception Cinnamon_util.Error.Error e -> Error e

(* Replay an emitted stream: every register an instruction reads, a
   spill store's included, holds the value the instruction names. *)
let reads_find_values emitted =
  let held = Hashtbl.create 64 in
  List.for_all
    (fun (ins, regs) ->
      let check (ok, j) v = (ok && Hashtbl.find_opt held regs.(j) = Some v, j + 1) in
      let hold j v =
        Hashtbl.replace held regs.(j) v;
        j + 1
      in
      let ok, n = Limb_ir.fold_reads check (true, 0) ins in
      ignore (Limb_ir.fold_writes hold n ins);
      ok)
    emitted

(* The allocator agrees with the oracle, and its stream replays. *)
let same_allocation ~num_regs cp =
  let a = allocation Regalloc.allocate ~num_regs cp in
  a = allocation Regalloc_ref.allocate ~num_regs cp
  && match a with Ok (emitted, _, _) -> reads_find_values emitted | Error _ -> true

(* One random step of a two-chip program: [kind] picks load / compute /
   store / collective, [picks] choose operands among the chip's values
   (small pools make repeats such as [a; a] common), [count] sizes a
   collective's receives. *)
let random_program steps =
  let b = Limb_ir.builder ~chips:2 ~limb_bytes:1024 in
  let vals = [| [||]; [||] |] in
  let add chip v = vals.(chip) <- Array.append vals.(chip) [| v |] in
  let pick chip p = vals.(chip).(p mod Array.length vals.(chip)) in
  let fus = [| Limb_ir.Fu_add; Fu_mul; Fu_ntt; Fu_bconv; Fu_auto |] in
  List.iter
    (fun (kind, chip, picks, count) ->
      if Array.length vals.(chip) = 0 || kind = 0 then add chip (Limb_ir.load b ~chip)
      else if kind <= 2 then
        add chip (Limb_ir.compute b ~chip ~fu:fus.(count mod Array.length fus) (List.map (pick chip) picks))
      else if kind = 3 then Limb_ir.store b ~chip (pick chip (List.hd picks))
      else if Array.length vals.(1 - chip) > 0 then
        Limb_ir.collective b ~kind:Limb_ir.Broadcast ~group:[ 0; 1 ] ~limbs:2
          ~sends:(fun c -> List.map (pick c) (if c = chip then picks else [ List.hd picks ]))
          ~recv_count:(fun c -> if c = chip then count else 1)
        |> List.iter (fun (c, recvs) -> List.iter (add c) recvs))
    steps;
  Limb_ir.finish b

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_regalloc_matches_ref =
  let step =
    QCheck2.Gen.(
      quad (int_range 0 4) (int_range 0 1) (list_size (int_range 1 4) (int_bound 999)) (int_range 1 3))
  in
  qtest ~count:300 "regalloc = linear-scan oracle (random 2-chip programs)"
    QCheck2.Gen.(pair (int_range 2 16) (list_size (int_range 1 80) step))
    (fun (num_regs, steps) ->
      let t = random_program steps in
      Array.for_all (same_allocation ~num_regs) t.Limb_ir.chips)

let test_regalloc_matches_ref_kernels () =
  List.iter
    (fun name ->
      let kernel = Result.get_ok (Cinnamon_workloads.Specs.find_kernel name) in
      let r = Pipeline.compile cfg4 (Cinnamon_workloads.Specs.kernel_program kernel) in
      Array.iter
        (fun (cp : Limb_ir.chip_program) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s chip %d" name cp.Limb_ir.chip)
            true
            (same_allocation ~num_regs:(Compile_config.registers cfg4) cp))
        r.Pipeline.limb.Limb_ir.chips)
    [ "helr-iter"; "resnet-block" ]

(* --- pipeline ------------------------------------------------------------------ *)

let test_pipeline_end_to_end () =
  let prog =
    Dsl.program (fun p ->
        let v = Dsl.input p "v" in
        Dsl.output (Dsl.bsgs_matvec v ~diagonals:9 ~name:"m") "out")
  in
  let r = Pipeline.compile cfg4 prog in
  Alcotest.(check int) "four chip programs" 4 (Array.length r.Pipeline.machine.Cinnamon_isa.Isa.programs);
  Alcotest.(check bool) "nonempty" true
    (Array.exists (fun p -> Array.length p.Cinnamon_isa.Isa.instrs > 0) r.Pipeline.machine.Cinnamon_isa.Isa.programs);
  Alcotest.(check bool) "summary prints" true (String.length (Pipeline.summary r) > 0)

let test_stream_groups () =
  let cfg = Compile_config.paper ~chips:8 ~group_size:4 () in
  Alcotest.(check (list int)) "stream 0 spans the machine" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Compile_config.group_of_stream cfg ~stream:0);
  Alcotest.(check (list int)) "stream 1 group" [ 0; 1; 2; 3 ]
    (Compile_config.group_of_stream cfg ~stream:1);
  Alcotest.(check (list int)) "stream 2 group" [ 4; 5; 6; 7 ]
    (Compile_config.group_of_stream cfg ~stream:2);
  Alcotest.(check (list int)) "stream 3 wraps" [ 0; 1; 2; 3 ]
    (Compile_config.group_of_stream cfg ~stream:3)

let test_streams_use_disjoint_chips () =
  let prog =
    Dsl.program (fun p ->
        Dsl.stream_pool p ~streams:2 (fun s ->
            let v = Dsl.input p (Printf.sprintf "v%d" s) in
            Dsl.output (Dsl.mul_plain v "w") (Printf.sprintf "o%d" s)))
  in
  let cfg = Compile_config.paper ~chips:8 ~group_size:4 () in
  let limb, _ = Lower_limb.lower cfg (Lower_poly.lower cfg prog) in
  (* both halves of the machine must have work *)
  let busy c = (Limb_ir.compute_stats_chip limb.Limb_ir.chips.(c)).Limb_ir.total_instrs > 0 in
  Alcotest.(check bool) "chip 0 busy" true (busy 0);
  Alcotest.(check bool) "chip 4 busy" true (busy 4)

let suite =
  ( "compiler",
    [
      Alcotest.test_case "pattern A: 1 broadcast" `Quick test_pattern_a_one_broadcast;
      Alcotest.test_case "pattern B: 2 aggregations" `Quick test_pattern_b_two_aggregations;
      Alcotest.test_case "cifher O(r) broadcasts" `Quick test_cifher_is_linear_in_r;
      Alcotest.test_case "bsgs has both patterns" `Quick test_bsgs_gets_both_patterns;
      Alcotest.test_case "pass disabled" `Quick test_pass_disabled_uses_default;
      Alcotest.test_case "ib-only mode" `Quick test_ib_only_mode;
      Alcotest.test_case "comm reduction vs cifher" `Slow test_comm_reduction_vs_cifher;
      Alcotest.test_case "round-robin placement" `Quick test_round_robin_placement;
      Alcotest.test_case "collectives consistent" `Quick test_collectives_consistent;
      Alcotest.test_case "malformed compute is typed" `Quick test_malformed_compute_is_typed;
      Alcotest.test_case "regalloc chain no spill" `Quick test_regalloc_no_spill_when_fits;
      Alcotest.test_case "regalloc spills wide" `Quick test_regalloc_spills_when_over_capacity;
      Alcotest.test_case "regalloc def-before-use" `Quick test_regalloc_def_before_use;
      Alcotest.test_case "regalloc capacity monotone" `Quick test_regalloc_belady_beats_small_file;
      test_regalloc_matches_ref;
      Alcotest.test_case "regalloc = oracle on zoo kernels" `Quick test_regalloc_matches_ref_kernels;
      Alcotest.test_case "pipeline end-to-end" `Quick test_pipeline_end_to_end;
      Alcotest.test_case "stream chip groups" `Quick test_stream_groups;
      Alcotest.test_case "streams disjoint chips" `Quick test_streams_use_disjoint_chips;
    ] )
