(* Tests for the three IRs and the DSL that builds them. *)

open Cinnamon_ir
module Dsl = Cinnamon.Dsl

let test_builder_levels () =
  let prog =
    Dsl.program ~top_level:10 ~boot_level:5 (fun p ->
        let a = Dsl.input p "a" in
        let b = Dsl.input p "b" in
        let m = Dsl.mul a b in
        let r = Dsl.rotate m 3 in
        Dsl.output r "out")
  in
  let levels = Array.map (fun n -> n.Ct_ir.level) prog.Ct_ir.nodes in
  Alcotest.(check int) "input level" 10 levels.(0);
  (* mul consumes one level; rotate preserves *)
  let mul_node =
    Array.to_list prog.Ct_ir.nodes
    |> List.find (fun n -> match n.Ct_ir.op with Ct_ir.Mul _ -> true | _ -> false)
  in
  Alcotest.(check int) "mul level" 9 mul_node.Ct_ir.level;
  let rot_node =
    Array.to_list prog.Ct_ir.nodes
    |> List.find (fun n -> match n.Ct_ir.op with Ct_ir.Rotate _ -> true | _ -> false)
  in
  Alcotest.(check int) "rotate level" 9 rot_node.Ct_ir.level

let test_budget_exhaustion () =
  Alcotest.check_raises "raises at budget exhaustion"
    (Invalid_argument "Ct_ir.emit: multiplicative budget exhausted (insert a bootstrap)")
    (fun () ->
      ignore
        (Dsl.program ~top_level:2 (fun p ->
             let a = Dsl.input p "a" in
             let x = Dsl.mul a a in
             let y = Dsl.mul x x in
             ignore (Dsl.mul y y))))

let test_bootstrap_restores_budget () =
  let prog =
    Dsl.program ~top_level:3 ~boot_level:13 (fun p ->
        let a = Dsl.input p "a" in
        let x = Dsl.mul (Dsl.mul (Dsl.mul a a) a) a in
        let fresh = Dsl.bootstrap x in
        Dsl.output (Dsl.mul fresh fresh) "out")
  in
  let boot_node =
    Array.to_list prog.Ct_ir.nodes
    |> List.find (fun n -> match n.Ct_ir.op with Ct_ir.Bootstrap _ -> true | _ -> false)
  in
  Alcotest.(check int) "bootstrap level" 13 boot_node.Ct_ir.level

let test_streams_recorded () =
  let prog =
    Dsl.program (fun p ->
        Dsl.stream_pool p ~streams:3 (fun s ->
            let a = Dsl.input p (Printf.sprintf "a%d" s) in
            Dsl.output (Dsl.rotate a 1) (Printf.sprintf "o%d" s)))
  in
  Alcotest.(check int) "stream count" 4 prog.Ct_ir.num_streams;
  let streams =
    Array.to_list prog.Ct_ir.nodes |> List.map (fun n -> n.Ct_ir.stream) |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "streams used (0 reserved for default)" [ 1; 2; 3 ] streams

let test_op_counts () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" in
        let b = Dsl.mul a a in
        let c = Dsl.rotate b 2 in
        let d = Dsl.conjugate c in
        let e = Dsl.mul_plain d "w" in
        Dsl.output (Dsl.add e a) "out")
  in
  let c = Ct_ir.count_ops prog in
  Alcotest.(check int) "muls" 1 c.Ct_ir.n_mul_ct;
  Alcotest.(check int) "rotates" 1 c.Ct_ir.n_rotate;
  Alcotest.(check int) "conjugates" 1 c.Ct_ir.n_conjugate;
  Alcotest.(check int) "mul_plain" 1 c.Ct_ir.n_mul_plain;
  Alcotest.(check int) "keyswitches" 3 (Ct_ir.keyswitch_count prog)

let test_rotate_zero_is_identity () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" in
        Dsl.output (Dsl.rotate a 0) "out")
  in
  let c = Ct_ir.count_ops prog in
  Alcotest.(check int) "no rotation emitted" 0 c.Ct_ir.n_rotate

let test_bsgs_pattern_shape () =
  (* the DSL bsgs routine should contain sqrt-ish rotations *)
  let prog =
    Dsl.program (fun p ->
        let v = Dsl.input p "v" in
        Dsl.output (Dsl.bsgs_matvec v ~diagonals:16 ~name:"m") "out")
  in
  let c = Ct_ir.count_ops prog in
  Alcotest.(check int) "16 plaintext mults" 16 c.Ct_ir.n_mul_plain;
  Alcotest.(check bool) "~2*sqrt(16) rotations" true (c.Ct_ir.n_rotate <= 8)

let test_dsl_sum_slots () =
  let prog =
    Dsl.program (fun p ->
        let v = Dsl.input p "v" in
        Dsl.output (Dsl.sum_slots v ~n:64) "out")
  in
  let c = Ct_ir.count_ops prog in
  Alcotest.(check int) "log2(64) rotations" 6 c.Ct_ir.n_rotate

(* Values of two programs mixed in a two-operand op are refused, in
   either operand position: ids are per builder, so the foreign value
   would silently alias this program's value of the same id. *)
let test_dsl_mixed_programs () =
  let refused name op =
    ignore
      (Dsl.program (fun p ->
           let a = Dsl.input p "a" in
           ignore
             (Dsl.program (fun q ->
                  let b = Dsl.input q "b" in
                  List.iter
                    (fun (order, f) ->
                      match f () with
                      | _ -> Alcotest.failf "%s (%s) mixed two programs" name order
                      | exception Cinnamon_util.Error.Error e ->
                        Alcotest.(check bool)
                          (name ^ " is an invalid input") true
                          (Cinnamon_util.Error.kind e = Cinnamon_util.Error.Invalid_input))
                    [ ("foreign second", fun () -> op a b); ("foreign first", fun () -> op b a) ]))))
  in
  refused "add" Dsl.add;
  refused "sub" Dsl.sub;
  refused "mul" Dsl.mul

(* Levels the Newton-Raphson routines consume: one MulConst for the
   initial guess, then 3 (reciprocal) or 4 (inverse sqrt) per
   iteration. *)
let test_dsl_nr_levels () =
  let drop routine iters =
    let drop = ref 0 in
    ignore
      (Dsl.program ~top_level:40 (fun p ->
           drop := 40 - Dsl.budget (routine (Dsl.input p "v") ~iters)));
    !drop
  in
  List.iter
    (fun iters ->
      Alcotest.(check int)
        (Printf.sprintf "nr_inverse %d iters" iters)
        (1 + (3 * iters))
        (drop Dsl.nr_inverse iters);
      Alcotest.(check int)
        (Printf.sprintf "nr_inv_sqrt %d iters" iters)
        (1 + (4 * iters))
        (drop Dsl.nr_inv_sqrt iters))
    [ 1; 2; 3 ]

(* --- poly lowering -------------------------------------------------------- *)

let lower prog =
  let cfg = Cinnamon_compiler.Compile_config.paper ~chips:4 () in
  Cinnamon_compiler.Lower_poly.lower cfg prog

let test_lower_add_expands () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" and b = Dsl.input p "b" in
        Dsl.output (Dsl.add a b) "out")
  in
  let poly = lower prog in
  let adds =
    Array.to_list poly.Poly_ir.nodes
    |> List.filter (fun n -> match n.Poly_ir.op with Poly_ir.PAdd _ -> true | _ -> false)
  in
  (* one ciphertext add -> two polynomial adds *)
  Alcotest.(check int) "two poly adds" 2 (List.length adds)

let test_lower_mul_structure () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" and b = Dsl.input p "b" in
        Dsl.output (Dsl.mul a b) "out")
  in
  let poly = lower prog in
  let count f = Array.to_list poly.Poly_ir.nodes |> List.filter f |> List.length in
  Alcotest.(check int) "four pointwise products" 4
    (count (fun n -> match n.Poly_ir.op with Poly_ir.PMul _ -> true | _ -> false));
  Alcotest.(check int) "keyswitch pair" 2
    (count (fun n -> match n.Poly_ir.op with Poly_ir.PKeyswitch _ -> true | _ -> false));
  Alcotest.(check int) "two rescales" 2
    (count (fun n -> match n.Poly_ir.op with Poly_ir.PRescale _ -> true | _ -> false))

let test_lower_rotate_structure () =
  let prog =
    Dsl.program (fun p ->
        let a = Dsl.input p "a" in
        Dsl.output (Dsl.rotate a 5) "out")
  in
  let poly = lower prog in
  let count f = Array.to_list poly.Poly_ir.nodes |> List.filter f |> List.length in
  Alcotest.(check int) "two automorphisms" 2
    (count (fun n -> match n.Poly_ir.op with Poly_ir.PAutomorph _ -> true | _ -> false));
  Alcotest.(check int) "keyswitch pair" 2
    (count (fun n -> match n.Poly_ir.op with Poly_ir.PKeyswitch _ -> true | _ -> false))

let test_lower_limbs_track_level () =
  let prog =
    Dsl.program ~top_level:10 (fun p ->
        let a = Dsl.input p "a" in
        Dsl.output (Dsl.mul a a) "out")
  in
  let poly = lower prog in
  let input_node = poly.Poly_ir.nodes.(0) in
  Alcotest.(check int) "input limbs = level+1" 11 input_node.Poly_ir.limbs

(* --- limb IR --------------------------------------------------------------- *)

let test_limb_ir_comm_stats () =
  let b = Limb_ir.builder ~chips:4 ~limb_bytes:1024 in
  let v0 = Limb_ir.compute b ~chip:0 ~fu:Limb_ir.Fu_add [] in
  ignore
    (Limb_ir.collective b ~kind:Limb_ir.Broadcast ~group:[ 0; 1; 2; 3 ] ~limbs:6
       ~sends:(fun c -> if c = 0 then [ v0 ] else [])
       ~recv_count:(fun c -> if c = 0 then 0 else 1));
  ignore
    (Limb_ir.collective b ~kind:Limb_ir.Aggregate_scatter ~group:[ 0; 1; 2; 3 ] ~limbs:4
       ~sends:(fun _ -> [])
       ~recv_count:(fun _ -> 1));
  let t = Limb_ir.finish b in
  let s = Limb_ir.comm_stats t in
  Alcotest.(check int) "one broadcast" 1 s.Limb_ir.broadcasts;
  Alcotest.(check int) "one aggregation" 1 s.Limb_ir.aggregations;
  Alcotest.(check int) "bytes" ((6 + 4) * 1024) s.Limb_ir.bytes_moved

let test_limb_ir_single_chip_no_collective () =
  let b = Limb_ir.builder ~chips:1 ~limb_bytes:1024 in
  let v0 = Limb_ir.compute b ~chip:0 ~fu:Limb_ir.Fu_add [] in
  let recvs =
    Limb_ir.collective b ~kind:Limb_ir.Broadcast ~group:[ 0 ] ~limbs:1
      ~sends:(fun _ -> [ v0 ])
      ~recv_count:(fun _ -> 1)
  in
  Alcotest.(check int) "returns own sends" v0 (List.hd (List.assoc 0 recvs));
  let t = Limb_ir.finish b in
  Alcotest.(check int) "no collectives" 0 (Limb_ir.comm_stats t).Limb_ir.broadcasts

let suite =
  ( "ir",
    [
      Alcotest.test_case "builder levels" `Quick test_builder_levels;
      Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
      Alcotest.test_case "bootstrap budget" `Quick test_bootstrap_restores_budget;
      Alcotest.test_case "streams" `Quick test_streams_recorded;
      Alcotest.test_case "op counts" `Quick test_op_counts;
      Alcotest.test_case "rotate 0" `Quick test_rotate_zero_is_identity;
      Alcotest.test_case "bsgs shape" `Quick test_bsgs_pattern_shape;
      Alcotest.test_case "sum_slots rotations" `Quick test_dsl_sum_slots;
      Alcotest.test_case "dsl refuses mixed programs" `Quick test_dsl_mixed_programs;
      Alcotest.test_case "nr routine levels" `Quick test_dsl_nr_levels;
      Alcotest.test_case "lower add" `Quick test_lower_add_expands;
      Alcotest.test_case "lower mul" `Quick test_lower_mul_structure;
      Alcotest.test_case "lower rotate" `Quick test_lower_rotate_structure;
      Alcotest.test_case "limbs track level" `Quick test_lower_limbs_track_level;
      Alcotest.test_case "limb comm stats" `Quick test_limb_ir_comm_stats;
      Alcotest.test_case "1-chip collective elided" `Quick test_limb_ir_single_chip_no_collective;
    ] )
