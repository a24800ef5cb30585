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
module Rng = Cinnamon_util.Rng
module Runner = Cinnamon_workloads.Runner
module Specs = Cinnamon_workloads.Specs

type class_spec = { cls_bench : string; cls_system : string; cls_weight : float }

let class_name c = Printf.sprintf "%s@%s" c.cls_bench c.cls_system

(* Every load test calibrates its mix first, so this is the one check
   of it. *)
let check_mix mix =
  if mix = [] then Error.fail Error.Invalid_input "Loadgen: class mix must be non-empty";
  List.iter
    (fun c ->
      if not (Float.is_finite c.cls_weight && c.cls_weight > 0.0) then
        Error.fail Error.Invalid_input
          (Printf.sprintf "Loadgen: class %s weight must be finite and > 0" (class_name c)))
    mix

(* A registry entry, or the registry's own unknown-name message as a
   typed error. *)
let found ?(prefix = "") = function
  | Ok x -> x
  | Error msg -> Error.fail Error.Unknown_name (prefix ^ msg)

(* Resolve a class to registry entries, failing fast. *)
let resolve_class cls =
  let bench = found ~prefix:"Loadgen: " (Specs.find_benchmark cls.cls_bench) in
  (cls, bench, found ~prefix:"Loadgen: " (Runner.find_system cls.cls_system))

(* A batch's benchmark plan, resolved once per distinct program: every
   request in a batch shares bench, system and config (the batcher's
   compatibility key), and [req_program] names exactly that triple, so
   it keys the plan.  Pool workers run the executor, hence a Memo.  A
   failed resolution raises out of [Memo.get] and publishes nothing. *)
let plans : (string, Runner.plan) Cinnamon_util.Memo.t = Cinnamon_util.Memo.create ()

let resolve_plan (r : Request.t) () =
  let bench = found (Specs.find_benchmark r.Request.req_bench) in
  Runner.plan ~config:r.Request.req_config (found (Runner.find_system r.Request.req_system)) bench

(* The production executor: charge the batch one benchmark run of its
   plan — one result-cache lookup per segment when warm.  One compile
   + simulation serves the whole batch; that is the amortization the
   serving layer exists to exploit. *)
let workload_executor ~now_s:_ (b : Batcher.batch) =
  match b.Batcher.requests with
  | [] -> 0.0
  | r :: _ ->
    Runner.plan_seconds (Cinnamon_util.Memo.get plans r.Request.req_program (resolve_plan r))

(* Calibrate: one real run per class gives its base service time and
   pre-warms the compile cache the serving run will hit. *)
let calibrate ~pool ~compile mix =
  check_mix mix;
  let classes = List.map resolve_class mix in
  Exec.Pool.map pool
    (fun (cls, bench, sys) ->
      let r = Runner.run_benchmark ~config:compile sys bench in
      (cls, r.Runner.br_seconds))
    classes

let mean_service calibrated =
  let total_weight = List.fold_left (fun acc (c, _) -> acc +. c.cls_weight) 0.0 calibrated in
  List.fold_left (fun acc (c, s) -> acc +. (c.cls_weight /. total_weight *. s)) 0.0 calibrated

(* The draws every generated request stream makes: a class in
   proportion to its weight, and a 10/80/10 High/Normal/Low priority.
   Callers fix their own draw order; it is part of their streams. *)
let class_picker rng calibrated =
  let total_weight = List.fold_left (fun acc (c, _) -> acc +. c.cls_weight) 0.0 calibrated in
  fun () ->
    let u = Rng.float rng *. total_weight in
    let rec go acc = function
      | [] -> List.hd calibrated (* unreachable: weights sum to total *)
      | (c, s) :: rest -> if acc +. c.cls_weight >= u then (c, s) else go (acc +. c.cls_weight) rest
    in
    go 0.0 calibrated

let pick_priority rng =
  let u = Rng.float rng in
  if u < 0.1 then Request.High else if u < 0.9 then Request.Normal else Request.Low

let report slo ~makespan_s ~(lookups : Exec.Result_cache.stats) =
  Slo.report slo
    ~duration_s:(Float.max makespan_s 1e-9)
    ~compiles:lookups.misses ~cache_hits:(lookups.hits + lookups.disk_hits)
