(* Benchmark execution: compile each kernel for a hardware
   configuration, cycle-simulate it, and compose segment times
   (hierarchical simulation; see DESIGN.md).

   Stream placement follows the paper (§7.1): systems are organized in
   groups of four chips (limb-level parallelism within a group), and
   program-level parallelism runs one stream per group — Cinnamon-8
   runs 2 concurrent streams, Cinnamon-12 runs 3.  Cinnamon-M and the
   single-chip baseline run everything on one chip.

   Compile+simulate results are cached through the domain-safe
   Cinnamon_exec.Result_cache, keyed structurally on the FULL compile
   configuration plus the simulated hardware configuration plus the
   kernel (Cinnamon_exec.Cache_key) — no hand-rolled key strings, no
   silently omitted fields.  A benchmark's [plan] resolves, once, what
   each segment runs on, its cache key and how its result scales;
   every composition ([run_benchmark], [run_sweep], the serving
   executor through [plan_seconds]) reads a plan.  [run_sweep] fans the
   distinct segment simulations of a sweep's plans across a
   Cinnamon_exec.Pool and composes the (deterministic) cached results
   sequentially, so jobs=1 and jobs=N produce identical numbers. *)

open Cinnamon_compiler
module Sim = Cinnamon_sim.Simulator
module SC = Cinnamon_sim.Sim_config
module Tel = Cinnamon_telemetry.Telemetry
module Exec = Cinnamon_exec

type system = {
  sys_name : string;
  sim : SC.t; (* the whole machine *)
  group_sim : SC.t; (* one stream group: [sim] narrowed to [group_chips] *)
  group_chips : int; (* chips per stream group *)
  groups : int; (* concurrent streams *)
}

(* The one place a group's Sim_config is derived — every consumer
   (simulation, cache keys, power models) sees the same record. *)
let make_system ~name ~group_chips ~groups sim =
  {
    sys_name = name;
    sim;
    group_sim = { sim with SC.chips = group_chips };
    group_chips;
    groups;
  }

let cinnamon_system ?(group_chips = 4) (sc : SC.t) =
  let group_chips = min group_chips sc.SC.chips in
  make_system ~name:sc.SC.name ~group_chips ~groups:(max 1 (sc.SC.chips / group_chips)) sc

let cinnamon_m = make_system ~name:"Cinnamon-M" ~group_chips:1 ~groups:1 SC.cinnamon_m
let cinnamon_1 = make_system ~name:"Cinnamon-1" ~group_chips:1 ~groups:1 SC.cinnamon_1
let cinnamon_4 = cinnamon_system SC.cinnamon_4
let cinnamon_8 = cinnamon_system SC.cinnamon_8
let cinnamon_12 = cinnamon_system SC.cinnamon_12

(* Whole-machine variant of a system: one group spanning every chip,
   used for single-instance segments (a lone bootstrap runs
   limb-parallel over all chips rather than leaving groups idle).
   The widened group_sim is constructed here, once — consumers never
   patch SC.chips after the fact. *)
let widened sys =
  if sys.groups = 1 then sys
  else
    make_system
      ~name:(sys.sys_name ^ ":wide")
      ~group_chips:sys.sim.SC.chips ~groups:1 sys.sim

(* The compiler configuration actually used for [sys]: chips and
   stream-group size come from the system, everything else from the
   caller's config.  This is also what the cache key is built from. *)
let effective_config (config : Compile_config.t) sys =
  let group_size =
    if config.Compile_config.progpar then max 1 (sys.group_chips / 2) else sys.group_chips
  in
  {
    config with
    Compile_config.chips = sys.group_chips;
    group_size;
    rf_bytes = sys.group_sim.SC.rf_bytes;
  }

let paper_config = Compile_config.paper ()

let compile_kernel ?(config = paper_config) ?(verify = false) sys kernel =
  let progpar = config.Compile_config.progpar in
  let prog =
    match (progpar, kernel) with
    | true, Specs.K_bootstrap shape -> Kernels.bootstrap_program ~shape ~progpar:true ()
    | _ -> Specs.kernel_program kernel
  in
  let cfg = effective_config config sys in
  Tel.Span.with_ ~cat:"runner" "compile_kernel"
    ~args:[ ("kernel", Tel.Str (Specs.kernel_name kernel)); ("system", Tel.Str sys.sys_name) ]
    (fun () -> Pipeline.compile ~verify cfg prog)

let cache_key ?(config = paper_config) sys kernel =
  Exec.Cache_key.make
    ~config:(effective_config config sys)
    ~sim:sys.group_sim ~kernel:(Specs.kernel_name kernel)

let compile_and_simulate ~config ~verify sys kernel =
  let r = compile_kernel ~config ~verify sys kernel in
  (* the kernel runs on one group; simulate that group *)
  Tel.Span.with_ ~cat:"runner" "simulate_kernel"
    ~args:[ ("kernel", Tel.Str (Specs.kernel_name kernel)); ("system", Tel.Str sys.sys_name) ]
    (fun () -> Sim.run sys.group_sim r.Pipeline.machine)

(* Note: a cache hit returns the simulated numbers without recompiling,
   so [verify] only runs on cache misses (and always with
   [use_cache:false]). *)
let simulate_kernel ?(config = paper_config) ?(use_cache = true) ?(verify = false) sys kernel =
  if not use_cache then compile_and_simulate ~config ~verify sys kernel
  else
    Exec.Result_cache.find_or_compute
      ~key:(cache_key ~config sys kernel)
      (fun () -> compile_and_simulate ~config ~verify sys kernel)

type segment_time = {
  seg_kernel : string;
  seg_seconds : float;
  seg_util : Sim.utilization;
}

type bench_result = {
  br_system : string;
  br_bench : string;
  br_seconds : float;
  br_segments : segment_time list;
  br_util : Sim.utilization;
}

(* Which (system, config) a segment actually runs on: single-instance
   work uses the whole machine limb-parallel (with the two EvalMod
   streams when it is a bootstrap); multi-instance work runs one
   instance per group. *)
let segment_target config sys (s : Specs.segment) =
  if s.Specs.instances = 1 && sys.groups > 1 then
    (widened sys, { config with Compile_config.progpar = true })
  else (sys, config)

(* Everything about a segment that does not depend on its simulated
   result, derived once: where it runs, the cache key its simulation is
   filed under, and how that result composes into the benchmark. *)
type segment_plan = {
  sp_segment : Specs.segment;
  sp_kernel : string;
  sp_system : system; (* effective: possibly widened *)
  sp_config : Compile_config.t; (* effective: progpar forced when widened *)
  sp_key : Exec.Cache_key.t;
  sp_scale : float; (* repeats × waves of parallel instances over the groups *)
  sp_occupancy : float;
}

type plan = { pl_system : system; pl_bench : Specs.benchmark; pl_segments : segment_plan list }

let plan ?(config = paper_config) sys (b : Specs.benchmark) =
  let segment (s : Specs.segment) =
    let eff_sys, eff_config = segment_target config sys s in
    let waves = Cinnamon_util.Bitops.cdiv s.Specs.instances eff_sys.groups in
    {
      sp_segment = s;
      sp_kernel = Specs.kernel_name s.Specs.kernel;
      sp_system = eff_sys;
      sp_config = eff_config;
      sp_key = cache_key ~config:eff_config eff_sys s.Specs.kernel;
      sp_scale = Float.of_int (s.Specs.repeats * waves);
      (* fraction of the machine's groups actually busy, averaged over
         the waves — idle groups de-rate reported utilization (the
         paper's Fig. 15 narrow-section effect) *)
      sp_occupancy =
        Float.of_int s.Specs.instances /. Float.of_int (waves * eff_sys.groups)
        *. (Float.of_int (eff_sys.groups * eff_sys.group_chips) /. Float.of_int sys.sim.SC.chips);
    }
  in
  { pl_system = sys; pl_bench = b; pl_segments = List.map segment b.Specs.segments }

let simulate_segment ?(verify = false) sp =
  Exec.Result_cache.find_or_compute ~key:sp.sp_key (fun () ->
      compile_and_simulate ~config:sp.sp_config ~verify sp.sp_system sp.sp_segment.Specs.kernel)

let segment_seconds sp (r : Sim.result) = sp.sp_scale *. r.Sim.seconds

(* The warm serving path: the benchmark's seconds, summed in segment
   order exactly as [run_plan] sums them, without its records or spans. *)
let plan_seconds p =
  List.fold_left (fun a sp -> a +. segment_seconds sp (simulate_segment sp)) 0.0 p.pl_segments

let run_plan ?verify p =
  let sys = p.pl_system and b = p.pl_bench in
  Tel.Span.with_ ~cat:"runner" "run_benchmark"
    ~args:[ ("bench", Tel.Str b.Specs.bench_name); ("system", Tel.Str sys.sys_name) ]
  @@ fun () ->
  let segments =
    List.map
      (fun sp ->
        let s = sp.sp_segment in
        Tel.Span.with_ ~cat:"runner" "segment"
          ~args:
            [ ("kernel", Tel.Str sp.sp_kernel); ("instances", Tel.Int s.Specs.instances);
              ("repeats", Tel.Int s.Specs.repeats) ]
        @@ fun () ->
        let r = simulate_segment ?verify sp in
        let seconds = segment_seconds sp r in
        let occupancy = sp.sp_occupancy in
        Tel.Span.add_args [ ("sim_seconds", Tel.Float seconds) ];
        { seg_kernel = sp.sp_kernel; seg_seconds = seconds;
          seg_util = { Sim.compute = r.Sim.util.Sim.compute *. occupancy;
                       memory = r.Sim.util.Sim.memory *. occupancy;
                       network = r.Sim.util.Sim.network *. occupancy } })
      p.pl_segments
  in
  let total = List.fold_left (fun a s -> a +. s.seg_seconds) 0.0 segments in
  (* time-weighted utilization over segments *)
  let weighted f =
    List.fold_left (fun a s -> a +. (f s.seg_util *. s.seg_seconds)) 0.0 segments /. max total 1e-12
  in
  {
    br_system = sys.sys_name;
    br_bench = b.Specs.bench_name;
    br_seconds = total;
    br_segments = segments;
    br_util = { Sim.compute = weighted (fun u -> u.Sim.compute);
                memory = weighted (fun u -> u.Sim.memory);
                network = weighted (fun u -> u.Sim.network) };
  }

let run_benchmark ?config ?verify sys b = run_plan ?verify (plan ?config sys b)

(* --------------------------------------------------- parallel sweeps *)

type kernel_time = {
  kt_kernel : string;
  kt_system : string;
  kt_result : Sim.result;
}

type sweep = {
  sw_results : bench_result list; (* one per input pair, input order *)
  sw_kernels : kernel_time list; (* distinct simulated kernels, input order *)
  sw_jobs : int; (* worker count actually used *)
}

(* The distinct segment simulations behind a sweep's plans,
   deduplicated by structural cache key in first-appearance order.
   These are the units fanned across the pool; composing the benchmarks
   afterwards touches only the (warm) cache. *)
let sweep_targets plans =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun p ->
      List.filter
        (fun sp ->
          let key = Exec.Cache_key.to_string sp.sp_key in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        p.pl_segments)
    plans

let run_sweep ?config ?(jobs = 0) ?verify pairs =
  let plans = List.map (fun (sys, b) -> plan ?config sys b) pairs in
  let pool = Exec.Pool.create ~jobs () in
  let kernel_results =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () ->
        Exec.Pool.map pool
          (fun sp ->
            { kt_kernel = sp.sp_kernel; kt_system = sp.sp_system.sys_name;
              kt_result = simulate_segment ?verify sp })
          (sweep_targets plans))
  in
  (* All kernels are cached now; composition is cheap and sequential,
     hence identical for every jobs count. *)
  let results = List.map (fun p -> run_plan p) plans in
  { sw_results = results; sw_kernels = kernel_results; sw_jobs = Exec.Pool.jobs pool }

let run_benchmarks ?config ?jobs ?verify pairs = (run_sweep ?config ?jobs ?verify pairs).sw_results

(* Systems of Table 2 / Fig. 11. *)
let all_systems = [ cinnamon_m; cinnamon_4; cinnamon_8; cinnamon_12 ]

(* Registry: the name → system mapping entry points dispatch through
   (companion to [Specs.kernels]/[Specs.benchmarks]). *)
let system_registry =
  Cinnamon_util.Registry.make ~what:"system"
    [
      ("cinnamon-m", cinnamon_m);
      ("cinnamon-1", cinnamon_1);
      ("cinnamon-4", cinnamon_4);
      ("cinnamon-8", cinnamon_8);
      ("cinnamon-12", cinnamon_12);
    ]

let systems = Cinnamon_util.Registry.entries system_registry
let find_system name = Cinnamon_util.Registry.find system_registry name
