(* Tests for the cycle-level simulator: determinism, resource-bound
   behavior, bandwidth scaling monotonicity, topology effects, and the
   CPU model. *)

open Cinnamon_compiler
module Dsl = Cinnamon.Dsl
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator

let small_prog =
  lazy
    (Dsl.program (fun p ->
         let v = Dsl.input p "v" in
         Dsl.output (Dsl.bsgs_matvec v ~diagonals:9 ~name:"m") "out"))

let compiled chips =
  Pipeline.compile (Compile_config.paper ~chips ()) (Lazy.force small_prog)

let c1 = lazy (compiled 1)
let c4 = lazy (compiled 4)

let test_sim_deterministic () =
  let r1 = Sim.run SC.cinnamon_4 (Lazy.force c4).Pipeline.machine in
  let r2 = Sim.run SC.cinnamon_4 (Lazy.force c4).Pipeline.machine in
  Alcotest.(check int) "same cycles" r1.Sim.cycles r2.Sim.cycles

let test_sim_positive_time () =
  let r = Sim.run SC.cinnamon_4 (Lazy.force c4).Pipeline.machine in
  Alcotest.(check bool) "positive cycles" true (r.Sim.cycles > 0);
  Alcotest.(check bool) "seconds consistent" true
    (Float.abs (r.Sim.seconds -. (Float.of_int r.Sim.cycles /. 1e9)) < 1e-12)

let test_sim_utilization_bounds () =
  let r = Sim.run SC.cinnamon_4 (Lazy.force c4).Pipeline.machine in
  let ok v = v >= 0.0 && v <= 1.05 in
  Alcotest.(check bool) "compute util bounded" true (ok r.Sim.util.Sim.compute);
  Alcotest.(check bool) "memory util bounded" true (ok r.Sim.util.Sim.memory);
  Alcotest.(check bool) "network util bounded" true (ok r.Sim.util.Sim.network)

let test_link_bandwidth_monotone () =
  let m = (Lazy.force c4).Pipeline.machine in
  let t bw = (Sim.run (SC.with_link_gbps SC.cinnamon_4 bw) m).Sim.cycles in
  Alcotest.(check bool) "512 <= 256" true (t 512.0 <= t 256.0);
  Alcotest.(check bool) "1024 <= 512" true (t 1024.0 <= t 512.0)

let test_memory_bandwidth_monotone () =
  let m = (Lazy.force c1).Pipeline.machine in
  let t bw = (Sim.run (SC.with_hbm_gbps SC.cinnamon_1 bw) m).Sim.cycles in
  Alcotest.(check bool) "more HBM is never slower" true (t 4096.0 <= t 1024.0)

let test_vector_width_helps () =
  let m = (Lazy.force c1).Pipeline.machine in
  let t lanes = (Sim.run (SC.with_lanes SC.cinnamon_1 lanes) m).Sim.cycles in
  Alcotest.(check bool) "wider lanes never slower" true (t 512 <= t 128)

let test_switch_vs_ring_latency () =
  (* same program; switch has lower per-collective latency *)
  let m = (Lazy.force c4).Pipeline.machine in
  let ring = Sim.run { SC.cinnamon_4 with SC.topology = SC.Ring } m in
  let switch = Sim.run { SC.cinnamon_4 with SC.topology = SC.Switch } m in
  Alcotest.(check bool) "switch <= ring" true (switch.Sim.cycles <= ring.Sim.cycles)

let test_multi_chip_splits_compute () =
  (* per-chip busy compute on 4 chips must be well below the 1-chip value *)
  let r1 = Sim.run SC.cinnamon_1 (Lazy.force c1).Pipeline.machine in
  let r4 = Sim.run SC.cinnamon_4 (Lazy.force c4).Pipeline.machine in
  Alcotest.(check bool) "limb parallel reduces per-chip time" true
    (Float.of_int r4.Sim.cycles *. r4.Sim.util.Sim.compute
    < Float.of_int r1.Sim.cycles *. r1.Sim.util.Sim.compute)

let test_op_cycles_model () =
  (* one 64K-element op at 4x256 lanes = 64 cycles *)
  Alcotest.(check int) "vector op occupancy" 64
    (SC.op_cycles SC.cinnamon_4 ~n:(1 lsl 16) Cinnamon_isa.Isa.C_add);
  (* the compact BCU runs half the lanes *)
  Alcotest.(check int) "bcu occupancy" 128
    (SC.op_cycles SC.cinnamon_4 ~n:(1 lsl 16) Cinnamon_isa.Isa.C_bconv)

let test_mem_cycles_model () =
  (* one 256KB limb at 2TB/s and 1GHz: ~128 cycles *)
  let c = SC.mem_cycles SC.cinnamon_4 (256 * 1024) in
  Alcotest.(check bool) "limb load cycles" true (c >= 120 && c <= 140)

let test_empty_program () =
  let open Cinnamon_isa.Isa in
  let mp = { programs = [| { chip = 0; instrs = [||]; n_regs = 1 } |]; limb_bytes = 4; n = 64 } in
  let r = Sim.run SC.cinnamon_1 mp in
  Alcotest.(check bool) "terminates" true (r.Sim.cycles >= 1)

(* A register at or past [n_regs] is a typed [Invalid_input] before
   anything runs: a compute's destination, and a collective's receive,
   which the simulator used to skip. *)
let test_register_out_of_range () =
  let open Cinnamon_isa.Isa in
  let rejects what programs =
    match Sim.run SC.cinnamon_4 { programs; limb_bytes = 4; n = 64 } with
    | _ -> Alcotest.failf "%s: simulated" what
    | exception Cinnamon_util.Error.Error e ->
      Alcotest.(check string) what "invalid-input" (Cinnamon_util.Error.kind_name e.Cinnamon_util.Error.kind)
  in
  rejects "vprng into r2 of 2"
    [| { chip = 0; instrs = [| Vprng { dst = 0 }; Vprng { dst = 2 } |]; n_regs = 2 } |];
  let bcast recvs = Net_bcast { group = [ 0; 1 ]; limbs = 1; coll_id = 0; sends = []; recvs } in
  rejects "broadcast into r1 of 1"
    [| { chip = 0; instrs = [| bcast [ 0 ] |]; n_regs = 1 };
       { chip = 1; instrs = [| bcast [ 1 ] |]; n_regs = 1 } |]

(* A collective that only part of its group reaches deadlocks the
   rendezvous: a typed [Invalid_input] naming the collective, the chips
   that arrived and the group, not a raw [Failure]. *)
let test_rendezvous_deadlock_is_typed () =
  let open Cinnamon_isa.Isa in
  let bcast = Net_bcast { group = [ 0; 1 ]; limbs = 1; coll_id = 0; sends = []; recvs = [ 0 ] } in
  let programs =
    [| { chip = 0; instrs = [| bcast |]; n_regs = 1 };
       { chip = 1; instrs = [| Vprng { dst = 0 } |]; n_regs = 1 } |]
  in
  match Sim.run SC.cinnamon_4 { programs; limb_bytes = 4; n = 64 } with
  | _ -> Alcotest.fail "half-joined broadcast simulated"
  | exception Cinnamon_util.Error.Error e ->
    Alcotest.(check string) "kind" "invalid-input"
      (Cinnamon_util.Error.kind_name e.Cinnamon_util.Error.kind);
    Alcotest.(check string) "message"
      "Simulator.run: collective rendezvous deadlock: coll 0: arrived [0] group [0,1]; "
      (Cinnamon_util.Error.message e)

(* Per-chip cycle accounting pinned to literals: [cycles] and every
   [chip_stats] field, given per chip as (busy, operand, fu, hbm,
   network, idle, total).  A diff here is a simulated-cycle change. *)
let chip_stats =
  Alcotest.testable
    (fun fmt (c : Sim.chip_stats) ->
      Format.fprintf fmt "(%d, %d, %d, %d, %d, %d, %d)" c.Sim.cs_busy c.cs_stall_operand
        c.cs_stall_fu c.cs_stall_hbm c.cs_stall_network c.cs_idle c.cs_total)
    ( = )

let stats (busy, operand, fu, hbm, network, idle, total) =
  { Sim.cs_busy = busy; cs_stall_operand = operand; cs_stall_fu = fu; cs_stall_hbm = hbm;
    cs_stall_network = network; cs_idle = idle; cs_total = total }

let test_cycle_accounting_pinned () =
  let module R = Cinnamon_workloads.Runner in
  let module K = Cinnamon_workloads.Specs in
  List.iter
    (fun (kernel, (sys : R.system), cycles, chips) ->
      let res = Sim.run sys.R.group_sim (R.compile_kernel sys kernel).Pipeline.machine in
      let lbl = Printf.sprintf "%s on %s" (K.kernel_name kernel) sys.R.sys_name in
      Alcotest.(check int) (lbl ^ ": cycles") cycles res.Sim.cycles;
      Alcotest.(check (list chip_stats)) (lbl ^ ": per-chip stats") (List.map stats chips)
        (Array.to_list res.Sim.per_chip_stats))
    [
      ( K.K_matvec 9, R.cinnamon_4, 312879,
        [ (309486, 3393, 0, 0, 0, 0, 312879); (309486, 3393, 0, 0, 0, 0, 312879);
          (309486, 3393, 0, 0, 0, 0, 312879); (286240, 1025, 0, 0, 25485, 129, 312879) ] );
      (K.K_matvec 9, R.cinnamon_m, 251046, [ (163603, 87443, 0, 0, 0, 0, 251046) ]);
      ( K.K_helr_iter, R.cinnamon_8, 818654,
        [ (804676, 11777, 0, 0, 2201, 0, 818654); (795978, 11009, 0, 0, 7419, 4248, 818654);
          (804282, 11810, 0, 0, 2240, 322, 818654); (771411, 9281, 0, 0, 37640, 322, 818654) ] );
    ]

(* The issue loop walks each instruction's operands without building
   anything: with the telemetry sink off, a simulation allocates less
   than one minor word per simulated instruction (the pattern of
   "kernels do not allocate"). *)
let test_sim_does_not_allocate () =
  let module R = Cinnamon_workloads.Runner in
  let sys = R.cinnamon_4 in
  let m = (R.compile_kernel sys (Cinnamon_workloads.Specs.K_matvec 9)).Pipeline.machine in
  let instrs =
    Array.fold_left (fun n p -> n + Array.length p.Cinnamon_isa.Isa.instrs) 0 m.Cinnamon_isa.Isa.programs
  in
  let was_enabled = Cinnamon_telemetry.Telemetry.enabled () in
  Cinnamon_telemetry.Telemetry.disable ();
  let runs = 4 in
  ignore (Sim.run sys.R.group_sim m);
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sim.run sys.R.group_sim m)
  done;
  let w = (Gc.minor_words () -. before) /. Float.of_int (runs * instrs) in
  if was_enabled then Cinnamon_telemetry.Telemetry.enable ();
  if w >= 1.0 then Alcotest.failf "Sim.run: %.3f minor words per instruction, expected < 1" w

(* --- CPU model ------------------------------------------------------------ *)

let test_cpu_model_magnitudes () =
  let open Cinnamon_sim.Cpu_model in
  (* bootstrap on a 48-core box: tens of seconds, not ms, not hours *)
  Alcotest.(check bool) "analytic bootstrap in range" true
    (analytic_bootstrap_seconds > 1.0 && analytic_bootstrap_seconds < 500.0);
  let from_meas = extrapolate_from_measured ~seconds_per_ntt:6e-4 ~n_meas:(1 lsl 12) ~cores:48 in
  Alcotest.(check bool) "extrapolation in range" true (from_meas > 1.0 && from_meas < 500.0)

let test_cpu_model_scaling () =
  let open Cinnamon_sim.Cpu_model in
  let t1 = keyswitch_modmuls ~n:(1 lsl 16) ~limbs:20 ~ext:10 ~dnum:3 in
  let t2 = keyswitch_modmuls ~n:(1 lsl 16) ~limbs:40 ~ext:10 ~dnum:3 in
  Alcotest.(check bool) "more limbs cost more" true (t2 > t1)

let suite =
  ( "sim",
    [
      Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
      Alcotest.test_case "positive time" `Quick test_sim_positive_time;
      Alcotest.test_case "utilization bounds" `Quick test_sim_utilization_bounds;
      Alcotest.test_case "link bw monotone" `Quick test_link_bandwidth_monotone;
      Alcotest.test_case "memory bw monotone" `Quick test_memory_bandwidth_monotone;
      Alcotest.test_case "vector width helps" `Quick test_vector_width_helps;
      Alcotest.test_case "switch vs ring" `Quick test_switch_vs_ring_latency;
      Alcotest.test_case "multi-chip splits compute" `Quick test_multi_chip_splits_compute;
      Alcotest.test_case "op cycle model" `Quick test_op_cycles_model;
      Alcotest.test_case "mem cycle model" `Quick test_mem_cycles_model;
      Alcotest.test_case "empty program" `Quick test_empty_program;
      Alcotest.test_case "register out of range is typed" `Quick test_register_out_of_range;
      Alcotest.test_case "rendezvous deadlock is typed" `Quick test_rendezvous_deadlock_is_typed;
      Alcotest.test_case "cycle accounting pinned" `Quick test_cycle_accounting_pinned;
      Alcotest.test_case "simulation does not allocate" `Quick test_sim_does_not_allocate;
      Alcotest.test_case "cpu model magnitudes" `Quick test_cpu_model_magnitudes;
      Alcotest.test_case "cpu model scaling" `Quick test_cpu_model_scaling;
    ] )
