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

(** The production [Node.execute]: resolve the head request's workload
    and charge the batch one real compile + simulation (all requests
    in a batch share the batcher's compatibility key, so one run
    amortizes over the whole batch). *)
val workload_executor : now_s:float -> Batcher.batch -> float

(** Run each class once (through the result cache, pre-warming the
    compiles a serving run will hit) and pair it with its measured
    base service seconds.  Raises typed errors on unknown workload
    names. *)
val calibrate :
  pool:Cinnamon_exec.Pool.t -> compile:CC.t -> class_spec list -> (class_spec * float) list

(** Weight-averaged base service seconds of a calibrated mix. *)
val mean_service : (class_spec * float) list -> float

(** ["bench\@system"], the key reports file calibrated seconds under. *)
val class_name : class_spec -> string

(** The SLO report of a finished run, with the compiles and cache hits
    the result cache counted since [since]. *)
val report : Slo.t -> makespan_s:float -> since:Cinnamon_exec.Result_cache.stats -> Slo.report
