(** Workload classes and their calibration, shared by every load test
    over the serving layer (the single-node load test, the fleet sweep
    and the multi-tenant bench in [Cinnamon_fleet]).

    Load tests {e self-calibrate}: each workload class in the mix is
    run once up front (through the result cache, pre-warming the
    compiles the serving run will hit) and its measured simulated
    seconds become the base service time used for arrival-rate and
    deadline scaling — so presets keep provoking the intended
    queueing/shedding behaviour as the simulator's timing model
    evolves. *)

module CC = Cinnamon_compiler.Compile_config

type class_spec = {
  cls_bench : string;  (** benchmark registry name *)
  cls_system : string;  (** system registry name *)
  cls_weight : float;  (** > 0; mix is weight-proportional *)
}

(** The production [Node.execute]: charge the batch one run of its
    head request's {!Cinnamon_workloads.Runner.plan} (all requests in a
    batch share the batcher's compatibility key, so one run amortizes
    over the whole batch).  The plan is resolved from the registries
    once per distinct [Request.req_program] and kept in a domain-safe
    table, so a warm call is one result-cache lookup per segment; a
    cold one compiles and simulates the missing segments.  Seconds and
    cache traffic equal [Runner.run_benchmark]'s.  Raises
    [Unknown_name] on an unknown benchmark or system, on every call (a
    failed resolution is not kept). *)
val workload_executor : now_s:float -> Batcher.batch -> float

(** Run each class once (through the result cache, pre-warming the
    compiles a serving run will hit) and pair it with its measured
    base service seconds.  Raises [Invalid_input] before any run on an
    empty mix or a weight that is not finite and > 0, and
    [Unknown_name] on unknown workload names. *)
val calibrate :
  pool:Cinnamon_exec.Pool.t -> compile:CC.t -> class_spec list -> (class_spec * float) list

(** Weight-averaged base service seconds of a calibrated mix. *)
val mean_service : (class_spec * float) list -> float

(** ["bench\@system"], the key reports file calibrated seconds under. *)
val class_name : class_spec -> string

(** [class_picker rng calibrated] draws a class of the (non-empty)
    mix in proportion to its weight, one [Rng.float] per draw. *)
val class_picker : Cinnamon_util.Rng.t -> (class_spec * 'a) list -> unit -> class_spec * 'a

(** The 10/80/10 High/Normal/Low priority draw, one [Rng.float]. *)
val pick_priority : Cinnamon_util.Rng.t -> Request.priority

(** The SLO report of a finished run, with the compiles and cache hits
    the result cache counted since [since]. *)
val report : Slo.t -> makespan_s:float -> since:Cinnamon_exec.Result_cache.stats -> Slo.report
