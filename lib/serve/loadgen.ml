(* Workload classes and their calibration, shared by the load tests
   over the serving layer: the single-node load test, the fleet sweep
   and the multi-tenant bench (all in Cinnamon_fleet).

   Load tests self-calibrate: before a run they execute each workload
   class once (through the Result_cache, which also pre-warms the
   compile the serving run will hit) and use the measured simulated
   seconds as that class's base service time for rate and deadline
   scaling.  This keeps quick-mode presets meaningful even as the
   simulator's timing model evolves. *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Exec = Cinnamon_exec
module Runner = Cinnamon_workloads.Runner
module Specs = Cinnamon_workloads.Specs

type class_spec = { cls_bench : string; cls_system : string; cls_weight : float }

(* Resolve a class to registry entries, failing fast with the
   registry's own unknown-name message. *)
let resolve_class cls =
  let bench =
    match Specs.find_benchmark cls.cls_bench with
    | Ok b -> b
    | Error msg -> Error.fail Error.Unknown_name ("Loadgen: " ^ msg)
  in
  let sys =
    match Runner.find_system cls.cls_system with
    | Ok s -> s
    | Error msg -> Error.fail Error.Unknown_name ("Loadgen: " ^ msg)
  in
  (cls, bench, sys)

(* The production executor: resolve the batch's workload and charge the
   batch one benchmark run.  All requests in a batch share bench,
   system and config (the batcher's compatibility key), so one compile
   + simulation serves the whole batch — that is the amortization the
   serving layer exists to exploit. *)
let workload_executor ~now_s:_ (b : Batcher.batch) =
  match b.Batcher.requests with
  | [] -> 0.0
  | r :: _ ->
    let bench =
      match Specs.find_benchmark r.Request.req_bench with
      | Ok x -> x
      | Error msg -> Error.fail Error.Unknown_name msg
    in
    let sys =
      match Runner.find_system r.Request.req_system with
      | Ok x -> x
      | Error msg -> Error.fail Error.Unknown_name msg
    in
    (Runner.run_benchmark ~config:r.Request.req_config sys bench).Runner.br_seconds

(* Calibrate: one real run per class gives its base service time and
   pre-warms the compile cache the serving run will hit. *)
let calibrate ~pool ~compile mix =
  let classes = List.map resolve_class mix in
  Exec.Pool.map pool
    (fun (cls, bench, sys) ->
      let r = Runner.run_benchmark ~config:compile sys bench in
      (cls, r.Runner.br_seconds))
    classes

let mean_service calibrated =
  let total_weight = List.fold_left (fun acc (c, _) -> acc +. c.cls_weight) 0.0 calibrated in
  List.fold_left (fun acc (c, s) -> acc +. (c.cls_weight /. total_weight *. s)) 0.0 calibrated

let class_name c = Printf.sprintf "%s@%s" c.cls_bench c.cls_system

let report slo ~makespan_s ~since =
  let open Exec.Result_cache in
  let now = stats () in
  Slo.report slo
    ~duration_s:(Float.max makespan_s 1e-9)
    ~compiles:(now.misses - since.misses)
    ~cache_hits:(now.hits + now.disk_hits - since.hits - since.disk_hits)
