(** Benchmark execution: compile kernels per hardware configuration,
    cycle-simulate them (cached), and compose segment times with
    stream-level parallelism (hierarchical simulation; DESIGN.md).

    Every entry point takes an optional [?config] (defaulting to
    [Compile_config.paper ()]); the runner overrides its [chips] and
    [group_size] fields per system (see {!effective_config}).
    Compile+simulate results flow through the domain-safe
    {!Cinnamon_exec.Result_cache}, keyed structurally with
    {!Cinnamon_exec.Cache_key} on the full effective configuration —
    two configs differing in any behavioral field (alpha, dnum, chips,
    rf_bytes, ...) never share a cache entry. *)

open Cinnamon_compiler
module Sim = Cinnamon_sim.Simulator
module SC = Cinnamon_sim.Sim_config

type system = private {
  sys_name : string;
  sim : SC.t;  (** the whole machine *)
  group_sim : SC.t;  (** one stream group: [sim] narrowed to [group_chips] *)
  group_chips : int;  (** chips per stream group *)
  groups : int;  (** concurrent streams *)
}

(** Smart constructor — the only way to build a {!system}; derives
    [group_sim] from [sim] and [group_chips] so the two can never
    disagree. *)
val make_system : name:string -> group_chips:int -> groups:int -> SC.t -> system

val cinnamon_m : system
val cinnamon_1 : system
val cinnamon_4 : system
val cinnamon_8 : system
val cinnamon_12 : system

(** The system with one group spanning every chip, used for
    single-instance segments.  Identity on single-group systems. *)
val widened : system -> system

(** The compiler configuration actually in effect for a system:
    [chips], [group_size] and [rf_bytes] come from the system,
    everything else from the caller's config. *)
val effective_config : Compile_config.t -> system -> Compile_config.t

(** Compile a kernel for one group of the system.  [~verify:true] runs
    the static verifier on the result ({!Pipeline.compile}). *)
val compile_kernel :
  ?config:Compile_config.t -> ?verify:bool -> system -> Specs.kernel -> Pipeline.result

(** Compile + simulate a kernel on one group of the system;
    [~use_cache:false] bypasses the result cache.  [~verify:true]
    verifies each compile — on a cache hit nothing recompiles, so
    verification only runs on misses. *)
val simulate_kernel :
  ?config:Compile_config.t -> ?use_cache:bool -> ?verify:bool -> system -> Specs.kernel ->
  Sim.result

type segment_time = { seg_kernel : string; seg_seconds : float; seg_util : Sim.utilization }

type bench_result = {
  br_system : string;
  br_bench : string;
  br_seconds : float;
  br_segments : segment_time list;
  br_util : Sim.utilization;  (** time-weighted, idle-group de-rated *)
}

(** [run_benchmark ?config ?verify sys b] composes [b]'s segment times
    on [sys] from its {!plan}. *)
val run_benchmark :
  ?config:Compile_config.t -> ?verify:bool -> system -> Specs.benchmark -> bench_result

(** {1 Plans}

    A benchmark's composition, resolved once: for each segment the
    effective system and configuration it runs under, its rendered
    {!Cinnamon_exec.Cache_key}, and the [repeats × waves] multiplier and
    group occupancy its simulated result is scaled by.  {!run_benchmark}
    and {!run_sweep} compose from a plan; a server holding a plan
    charges a warm run one cache lookup per segment. *)

type plan

val plan : ?config:Compile_config.t -> system -> Specs.benchmark -> plan

(** [plan_seconds p] is [(run_benchmark ?config sys b).br_seconds] for
    the [p = plan ?config sys b], bit for bit, with the same
    result-cache lookups (one per segment, simulating on a miss); it
    builds no per-segment records and opens no spans. *)
val plan_seconds : plan -> float

(** {1 Parallel sweeps} *)

type kernel_time = {
  kt_kernel : string;
  kt_system : string;  (** effective system (may be a [":wide"] variant) *)
  kt_result : Sim.result;
}

type sweep = {
  sw_results : bench_result list;  (** one per input pair, in input order *)
  sw_kernels : kernel_time list;  (** distinct kernel simulations, first-appearance order *)
  sw_jobs : int;  (** worker domains actually used *)
}

(** [run_sweep ?config ?jobs pairs] runs every (system, benchmark)
    pair: the distinct kernel compile+simulate jobs behind the sweep
    are fanned across a {!Cinnamon_exec.Pool} with [jobs] workers
    ([0], the default, means [Pool.default_jobs ()]), then benchmarks
    are composed from the warm cache.  Results are bit-identical for
    every [jobs] value. *)
val run_sweep :
  ?config:Compile_config.t -> ?jobs:int -> ?verify:bool -> (system * Specs.benchmark) list ->
  sweep

val run_benchmarks :
  ?config:Compile_config.t -> ?jobs:int -> ?verify:bool -> (system * Specs.benchmark) list ->
  bench_result list

(** The Table 2 / Fig. 11 systems. *)
val all_systems : system list

val systems : (string * system) list
val find_system : string -> (system, string) result
