(* Tests for Cinnamon_serve: admission queue, dynamic batcher,
   virtual-time scheduler and SLO accounting — synthetic executors
   throughout (no compiles), so every failure path is driven
   deliberately: queue-full rejection, deadline shedding, transient
   retries, permanent failure, drain-on-shutdown.  The single-node
   server under test is a one-node fleet.  The production executor
   ([Loadgen.workload_executor]) is checked last, against
   [Runner.run_benchmark] over every registered benchmark and system. *)

open Cinnamon_serve
module CC = Cinnamon_compiler.Compile_config
module Fleet = Cinnamon_fleet.Fleet
module Loadtest = Cinnamon_fleet.Loadtest

let req ?config ?priority ?deadline_s ~id ~arrival_s () =
  Request.make ?config ?priority ?deadline_s ~id ~bench:"bootstrap" ~system:"cinnamon-4"
    ~arrival_s ()

(* Constant-service executor; counts calls so tests can assert how
   many batches actually executed. *)
let const_executor ?(service = 1.0) calls ~now_s:_ _batch =
  incr calls;
  service

(* Run a fleet and collect every terminal response, in order, through
   [on_terminal]: the fleet's result and the responses. *)
let run_collecting ?pool config ~make_node ~arrivals =
  let responses = ref [] in
  let on_terminal resp =
    responses := resp :: !responses;
    []
  in
  let r = Fleet.run ?pool ~on_terminal config ~make_node ~arrivals () in
  (r, List.rev !responses)

(* The single-node server: a one-node fleet of the first-class Node
   record. *)
let run_server ~capacity ~executor arrivals =
  run_collecting
    { Fleet.default_config with Fleet.fc_nodes = 1 }
    ~make_node:(fun _ -> Node.make ~capacity ~execute:executor ())
    ~arrivals

let contains ~needle hay =
  let ls = String.length needle and ln = String.length hay in
  let rec scan i = i + ls <= ln && (String.sub hay i ls = needle || scan (i + 1)) in
  scan 0

let count name responses =
  List.length
    (List.filter (fun (resp : Response.t) -> Response.outcome_name resp.Response.outcome = name) responses)

let find_response responses id =
  List.find (fun (resp : Response.t) -> resp.Response.req.Request.req_id = id) responses

let opt_ms = Alcotest.(option (float 1e-9))

(* --- request validation and slots ------------------------------------ *)

let test_request_validation () =
  Alcotest.check_raises "negative arrival"
    (Invalid_argument "Request.make: arrival time must be >= 0") (fun () ->
      ignore (req ~id:0 ~arrival_s:(-1.0) ()));
  let r = req ~config:{ (CC.paper ()) with CC.log_n = 3 } ~id:0 ~arrival_s:0.0 () in
  Alcotest.(check int) "slots = 2^(log_n-1)" 4 (Request.slots r);
  Alcotest.(check bool) "no deadline never expires" false (Request.expired r ~now_s:1e12)

(* --- admission -------------------------------------------------------- *)

let test_queue_full_rejection () =
  (* capacity 2, service long enough that nothing completes before all
     four arrivals: worker takes r0, queue holds r1 r2, r3 bounces *)
  let calls = ref 0 in
  let arrivals = List.init 4 (fun id -> req ~id ~arrival_s:(0.001 *. Float.of_int id) ()) in
  let capacity =
    { Node.default_capacity with Node.workers = 1; queue_capacity = 2; max_batch = 1 }
  in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  Alcotest.(check int) "three complete" 3 (count "completed" rs);
  Alcotest.(check int) "one rejected" 1 (count "rejected" rs);
  match (find_response rs 3).Response.outcome with
  | Response.Rejected (Admission.Queue_full { capacity }) ->
    Alcotest.(check int) "error carries capacity" 2 capacity
  | o -> Alcotest.failf "expected Queue_full, got %s" (Response.outcome_name o)

let test_expired_on_arrival () =
  (* deadline already past when the request shows up *)
  let calls = ref 0 in
  let arrivals =
    [ req ~id:0 ~arrival_s:0.0 (); req ~id:1 ~deadline_s:0.5 ~arrival_s:1.0 () ]
  in
  let capacity = { Node.default_capacity with Node.workers = 1 } in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  match (find_response rs 1).Response.outcome with
  | Response.Rejected (Admission.Expired { deadline_s; now_s }) ->
    Alcotest.(check (float 1e-9)) "deadline" 0.5 deadline_s;
    Alcotest.(check (float 1e-9)) "now" 1.0 now_s
  | o -> Alcotest.failf "expected Expired, got %s" (Response.outcome_name o)

let test_deadline_shed_while_queued () =
  (* one worker busy for 10 s; the queued request's 1 s deadline lapses
     before a worker frees up — it must be shed, not silently dropped *)
  let calls = ref 0 in
  let arrivals =
    [ req ~id:0 ~arrival_s:0.0 (); req ~id:1 ~deadline_s:1.0 ~arrival_s:0.1 () ]
  in
  let capacity = { Node.default_capacity with Node.workers = 1; max_batch = 1 } in
  let r, rs = run_server ~capacity ~executor:(const_executor ~service:10.0 calls) arrivals in
  Alcotest.(check int) "one executed batch" 1 !calls;
  Alcotest.(check int) "one completed" 1 (count "completed" rs);
  (match (find_response rs 1).Response.outcome with
  | Response.Shed { deadline_s; shed_s } ->
    Alcotest.(check (float 1e-9)) "deadline recorded" 1.0 deadline_s;
    Alcotest.(check bool) "shed after expiry" true (shed_s >= deadline_s)
  | o -> Alcotest.failf "expected Shed, got %s" (Response.outcome_name o));
  let rp = Slo.report r.Fleet.fr_slo ~duration_s:r.Fleet.fr_makespan_s ~compiles:0 ~cache_hits:0 in
  Alcotest.(check int) "slo sees the shed" 1 rp.Slo.rp_shed;
  Alcotest.(check bool) "shed rate positive" true (rp.Slo.rp_shed_rate > 0.0)

(* --- retries ---------------------------------------------------------- *)

let test_retry_then_succeed () =
  let attempts_seen = ref 0 in
  let executor ~now_s:_ _b =
    incr attempts_seen;
    if !attempts_seen = 1 then raise (Node.Transient "injected hiccup");
    2.0
  in
  let capacity = { Node.default_capacity with Node.workers = 1; max_attempts = 3 } in
  let r, rs = run_server ~capacity ~executor [ req ~id:0 ~arrival_s:0.0 () ] in
  Alcotest.(check int) "two attempts" 2 !attempts_seen;
  (match (find_response rs 0).Response.outcome with
  | Response.Completed { attempts; _ } -> Alcotest.(check int) "attempts recorded" 2 attempts
  | o -> Alcotest.failf "expected Completed, got %s" (Response.outcome_name o));
  let rp = Slo.report r.Fleet.fr_slo ~duration_s:1.0 ~compiles:0 ~cache_hits:0 in
  Alcotest.(check int) "one retry counted" 1 rp.Slo.rp_retries

let test_retries_exhausted () =
  let executor ~now_s:_ _b = raise (Node.Transient "always down") in
  let capacity = { Node.default_capacity with Node.workers = 1; max_attempts = 3 } in
  let _, rs = run_server ~capacity ~executor [ req ~id:0 ~arrival_s:0.0 () ] in
  match (find_response rs 0).Response.outcome with
  | Response.Failed { attempts; reason; _ } ->
    Alcotest.(check int) "all attempts burned" 3 attempts;
    Alcotest.(check bool) "reason mentions transient" true (contains ~needle:"transient" reason)
  | o -> Alcotest.failf "expected Failed, got %s" (Response.outcome_name o)

let test_nontransient_fails_immediately () =
  let calls = ref 0 in
  let executor ~now_s:_ _b =
    incr calls;
    failwith "compile exploded"
  in
  let capacity = { Node.default_capacity with Node.workers = 1; max_attempts = 5 } in
  let _, rs = run_server ~capacity ~executor [ req ~id:0 ~arrival_s:0.0 () ] in
  Alcotest.(check int) "no retry on permanent error" 1 !calls;
  match (find_response rs 0).Response.outcome with
  | Response.Failed { attempts; reason; _ } ->
    Alcotest.(check int) "one attempt" 1 attempts;
    Alcotest.(check bool) "reason preserved" true
      (contains ~needle:"compile exploded" reason)
  | o -> Alcotest.failf "expected Failed, got %s" (Response.outcome_name o)

(* --- batching --------------------------------------------------------- *)

let test_batching_amortizes () =
  (* six compatible requests land while the worker is busy with the
     first: the remaining five form one batch -> two executor calls *)
  let calls = ref 0 in
  let arrivals = List.init 6 (fun id -> req ~id ~arrival_s:(0.01 *. Float.of_int id) ()) in
  let capacity =
    { Node.default_capacity with Node.workers = 1; max_batch = 8; queue_capacity = 16 }
  in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  Alcotest.(check int) "all complete" 6 (count "completed" rs);
  Alcotest.(check int) "two batches" 2 !calls;
  match (find_response rs 5).Response.outcome with
  | Response.Completed { batch_size; _ } -> Alcotest.(check int) "second batch packs 5" 5 batch_size
  | o -> Alcotest.failf "expected Completed, got %s" (Response.outcome_name o)

let test_batch_respects_slot_cap () =
  (* log_n = 2 -> 2 slots per ciphertext ring: batches cap at 2 even
     with max_batch = 8 *)
  let config = { (CC.paper ()) with CC.log_n = 2 } in
  let calls = ref 0 in
  let arrivals = List.init 4 (fun id -> req ~config ~id ~arrival_s:0.0 ()) in
  let capacity = { Node.default_capacity with Node.workers = 1; max_batch = 8 } in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  Alcotest.(check int) "two slot-capped batches" 2 !calls;
  List.iter
    (fun (resp : Response.t) ->
      match resp.Response.outcome with
      | Response.Completed { batch_size; _ } ->
        Alcotest.(check bool) "batch within slot cap" true (batch_size <= 2)
      | o -> Alcotest.failf "expected Completed, got %s" (Response.outcome_name o))
    rs

let test_incompatible_requests_split_batches () =
  (* same arrival instant, different compile configs -> the batcher
     must not mix them, even though bench and system agree *)
  let cfg_a = CC.paper () in
  let cfg_b = { (CC.paper ()) with CC.dnum = (CC.paper ()).CC.dnum + 1 } in
  let calls = ref 0 in
  let arrivals =
    [ req ~config:cfg_a ~id:0 ~arrival_s:0.0 (); req ~config:cfg_b ~id:1 ~arrival_s:0.0 ();
      req ~config:cfg_a ~id:2 ~arrival_s:0.0 () ]
  in
  let capacity = { Node.default_capacity with Node.workers = 3; max_batch = 8 } in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  Alcotest.(check int) "all complete" 3 (count "completed" rs);
  Alcotest.(check int) "configs never share a batch" 2 !calls

let test_compat_key_is_structural () =
  (* pin: tenant and epoch lead the key (requests under different key
     material never share a batch), and the config digest is the
     structural Cache_key rendering, not a Marshal image *)
  let config = CC.paper () in
  let r = req ~config ~id:0 ~arrival_s:0.0 () in
  let expected =
    Printf.sprintf "t0|e0|bootstrap|cinnamon-4|%s"
      (Digest.to_hex (Digest.string (Cinnamon_exec.Cache_key.config_sig config)))
  in
  Alcotest.(check string) "compat key = tenant|epoch|bench|system|md5(config_sig)" expected
    (Batcher.compat_key r);
  let tenant = Cinnamon_tenant.Tenant_id.make 7 in
  Alcotest.(check bool) "tenant changes compat key" false
    (String.equal (Batcher.compat_key r)
       (Batcher.compat_key (Request.make ~tenant ~id:1 ~bench:"bootstrap" ~system:"cinnamon-4" ~arrival_s:0.0 ())));
  Alcotest.(check bool) "epoch changes compat key" false
    (String.equal (Batcher.compat_key r)
       (Batcher.compat_key
          (Request.with_epoch r (Cinnamon_tenant.Epoch.next (Cinnamon_tenant.Epoch.zero)))));
  (* every behavioural field must move the key *)
  let variants =
    [
      { config with CC.dnum = config.CC.dnum + 1 };
      { config with CC.alpha = config.CC.alpha + 1 };
      { config with CC.chips = config.CC.chips + 1 };
      { config with CC.rf_bytes = config.CC.rf_bytes + 1 };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "field change changes compat key" false
        (String.equal (Batcher.compat_key r)
           (Batcher.compat_key (req ~config:c ~id:1 ~arrival_s:0.0 ()))))
    variants

(* Forming a batch compares the program key each request carries: it
   renders no string per queued request, so its cost per request stays
   a few words of list traffic. *)
let test_batcher_form_allocation () =
  let depth = 32 and rounds = 64 in
  let reqs =
    List.init depth (fun id ->
        Request.make ~tenant:(Cinnamon_tenant.Tenant_id.make (id mod 4)) ~id ~bench:"bootstrap"
          ~system:"cinnamon-4" ~arrival_s:(Float.of_int id) ())
  in
  let words = ref 0.0 in
  for round = 0 to rounds + 3 do
    let q = Admission.create ~capacity:depth in
    List.iter (fun r -> Result.get_ok (Admission.admit q ~now_s:0.0 r)) reqs;
    let before = Gc.minor_words () in
    let b = Batcher.form q ~now_s:0.0 ~max_batch:depth ~batch_id:round in
    let after = Gc.minor_words () in
    Alcotest.(check int) "one tenant's share" (depth / 4) (Batcher.size (Option.get b));
    (* the first rounds warm up *)
    if round > 3 then words := !words +. (after -. before)
  done;
  let per_request = !words /. Float.of_int (rounds * depth) in
  if per_request >= 32.0 then
    Alcotest.failf "Batcher.form: %.1f minor words per queued request, expected < 32" per_request

(* The fleet loop sheds every node's queue at every step; when nothing
   has expired that costs a scan: no word allocated, the queue's list
   left as it was. *)
let test_shed_nothing_expired_allocation () =
  let q = Admission.create ~capacity:16 in
  for id = 0 to 7 do
    Result.get_ok
      (Admission.admit q ~now_s:0.0
         (req ~deadline_s:(10.0 +. Float.of_int id) ~id ~arrival_s:(Float.of_int id) ()))
  done;
  let queue = Admission.queued q in
  let now_s = 5.0 and calls = 256 in
  ignore (Admission.shed_expired q ~now_s);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Admission.shed_expired q ~now_s)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "queue physically unchanged" true (Admission.queued q == queue);
  if words > 0.0 then
    Alcotest.failf "shed_expired with nothing expired: %.0f minor words over %d calls" words calls;
  (* a deadline that has passed is still shed *)
  Alcotest.(check (list int)) "expired shed" [ 0; 1 ]
    (List.map (fun (r : Request.t) -> r.Request.req_id) (Admission.shed_expired q ~now_s:11.5));
  Alcotest.(check int) "the rest stay" 6 (Admission.depth q)

let test_priority_orders_queue () =
  (* while the worker is busy, a later-arriving High beats queued
     Normals to the front of the queue *)
  let order = ref [] in
  let executor ~now_s:_ (b : Batcher.batch) =
    List.iter
      (fun (r : Request.t) -> order := r.Request.req_id :: !order)
      b.Batcher.requests;
    1.0
  in
  let arrivals =
    [ req ~id:0 ~arrival_s:0.0 (); req ~id:1 ~arrival_s:0.01 ();
      req ~priority:Request.High ~id:2 ~arrival_s:0.02 () ]
  in
  let capacity = { Node.default_capacity with Node.workers = 1; max_batch = 1 } in
  ignore (run_server ~capacity ~executor arrivals);
  Alcotest.(check (list int)) "high jumps the queue" [ 0; 2; 1 ] (List.rev !order)

(* --- drain ------------------------------------------------------------ *)

let test_drain_completes_admitted () =
  (* admission closes at t=0.05: the two early requests drain to
     completion, the late one is rejected Closed — nothing vanishes *)
  let calls = ref 0 in
  let arrivals =
    [ req ~id:0 ~arrival_s:0.0 (); req ~id:1 ~arrival_s:0.01 (); req ~id:2 ~arrival_s:1.0 () ]
  in
  let capacity =
    { Node.default_capacity with Node.workers = 1; max_batch = 1; drain_after_s = Some 0.05 }
  in
  let _, rs = run_server ~capacity ~executor:(const_executor calls) arrivals in
  Alcotest.(check int) "every request has a response" 3 (List.length rs);
  Alcotest.(check int) "admitted requests complete" 2 (count "completed" rs);
  match (find_response rs 2).Response.outcome with
  | Response.Rejected Admission.Closed -> ()
  | o -> Alcotest.failf "expected Rejected Closed, got %s" (Response.outcome_name o)

(* --- determinism and accounting --------------------------------------- *)

let run_quick_loadgen () =
  Cinnamon_exec.Result_cache.clear_memory ();
  Cinnamon_exec.Result_cache.reset_stats ();
  Loadtest.run { Loadtest.quick with Loadtest.lg_requests = 12; lg_jobs = 1 }

let test_loadgen_deterministic_and_amortized () =
  let a = run_quick_loadgen () in
  let b = run_quick_loadgen () in
  let ra = a.Loadtest.lr_report and rb = b.Loadtest.lr_report in
  Alcotest.check opt_ms "p99 reproducible" ra.Slo.rp_p99_ms rb.Slo.rp_p99_ms;
  Alcotest.(check int) "completions reproducible" ra.Slo.rp_completed rb.Slo.rp_completed;
  Alcotest.(check int) "batches reproducible" ra.Slo.rp_batches rb.Slo.rp_batches;
  (* the acceptance criterion: batching amortizes compiles *)
  Alcotest.(check bool) "fewer compiles than admitted requests" true
    (ra.Slo.rp_compiles < ra.Slo.rp_admitted);
  Alcotest.(check bool) "some work completed" true (ra.Slo.rp_completed > 0);
  Alcotest.(check bool) "goodput positive" true (ra.Slo.rp_goodput_rps > 0.0)

let test_every_offered_request_accounted () =
  let calls = ref 0 in
  let arrivals = List.init 20 (fun id -> req ~id ~arrival_s:(0.3 *. Float.of_int id) ()) in
  let capacity = { Node.default_capacity with Node.workers = 2; queue_capacity = 3 } in
  let r, rs = run_server ~capacity ~executor:(const_executor ~service:2.0 calls) arrivals in
  Alcotest.(check int) "20 responses for 20 requests" 20 (List.length rs);
  let rp = Slo.report r.Fleet.fr_slo ~duration_s:r.Fleet.fr_makespan_s ~compiles:0 ~cache_hits:0 in
  Alcotest.(check int) "offered = terminal outcomes"
    rp.Slo.rp_offered
    (rp.Slo.rp_completed + rp.Slo.rp_shed + rp.Slo.rp_failed + rp.Slo.rp_rejected_full
   + rp.Slo.rp_rejected_expired + rp.Slo.rp_rejected_closed + rp.Slo.rp_rejected_fleet)

let test_slo_report_json_shape () =
  let slo = Slo.create () in
  Slo.observe_offered slo;
  Slo.observe_admitted slo;
  Slo.observe_completed slo ~latency_s:0.25 ~met:true;
  let rp = Slo.report slo ~duration_s:1.0 ~compiles:1 ~cache_hits:0 in
  let j = Cinnamon_util.Json.to_string (Slo.report_json rp) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains ~needle j))
    [ "\"p50_ms\""; "\"p95_ms\""; "\"p99_ms\""; "\"goodput_rps\""; "\"shed_rate\""; "\"compiles\"" ];
  (* singleton histogram: all percentiles equal the one sample *)
  Alcotest.check opt_ms "p50 = sample" (Some 250.0) rp.Slo.rp_p50_ms;
  Alcotest.check opt_ms "p99 = sample" (Some 250.0) rp.Slo.rp_p99_ms

let test_slo_zero_completion_serializes () =
  (* nothing completed: percentile fields must be None and serialize as
     JSON null, never a bare nan token *)
  let slo = Slo.create () in
  Slo.observe_offered slo;
  Slo.observe_rejected slo (Admission.Queue_full { capacity = 1 });
  let rp = Slo.report slo ~duration_s:1.0 ~compiles:0 ~cache_hits:0 in
  Alcotest.check opt_ms "p50 absent" None rp.Slo.rp_p50_ms;
  Alcotest.check opt_ms "p99 absent" None rp.Slo.rp_p99_ms;
  Alcotest.check opt_ms "mean absent" None rp.Slo.rp_mean_ms;
  Alcotest.check opt_ms "max absent" None rp.Slo.rp_max_ms;
  let j = Cinnamon_util.Json.to_string (Slo.report_json rp) in
  Alcotest.(check bool) "serializes null percentiles" true (contains ~needle:"null" j);
  (* a nan float would render as a bare value token after the colon;
     the rejected_tenant field name legitimately contains "nan" *)
  Alcotest.(check bool) "no nan token" false
    (contains ~needle:":nan" j || contains ~needle:": nan" j);
  Alcotest.(check bool) "rendered report prints dashes" true
    (contains ~needle:"p99 -" (Slo.to_string rp))

let test_slo_merge_adds () =
  let a = Slo.create () and b = Slo.create () in
  Slo.observe_offered a;
  Slo.observe_admitted a;
  Slo.observe_completed a ~latency_s:0.1 ~met:true;
  Slo.observe_queue_depth a 3;
  Slo.observe_offered b;
  Slo.observe_rejected b Admission.Fleet_full;
  Slo.observe_queue_depth b 5;
  let m = Slo.merge [ a; b ] in
  let rp = Slo.report m ~duration_s:1.0 ~compiles:0 ~cache_hits:0 in
  Alcotest.(check int) "offered adds" 2 rp.Slo.rp_offered;
  Alcotest.(check int) "completed adds" 1 rp.Slo.rp_completed;
  Alcotest.(check int) "fleet-full rejection counted" 1 rp.Slo.rp_rejected_fleet;
  Alcotest.(check int) "depth max pools" 5 rp.Slo.rp_queue_depth_max;
  Alcotest.check opt_ms "latency histogram merges" (Some 100.0) rp.Slo.rp_p50_ms

let test_node_capacity_validation () =
  let execute ~now_s:_ _b = 1.0 in
  let bad capacity =
    match Node.make ~capacity ~execute () with
    | _ -> Alcotest.fail "expected a typed invalid-input error"
    | exception Cinnamon_util.Error.Error e ->
      Alcotest.(check int)
        "invalid-input exit code" 2
        (Cinnamon_util.Error.exit_code e.Cinnamon_util.Error.kind)
  in
  bad { Node.default_capacity with Node.workers = 0 };
  bad { Node.default_capacity with Node.max_batch = 0 };
  bad { Node.default_capacity with Node.max_attempts = 0 };
  bad { Node.default_capacity with Node.queue_capacity = 0 }

(* --- the production executor ------------------------------------------ *)

module Runner = Cinnamon_workloads.Runner
module Specs = Cinnamon_workloads.Specs
module Rc = Cinnamon_exec.Result_cache

(* The one-request batch [Batcher.form] makes of [r]. *)
let batch_of r =
  let q = Admission.create ~capacity:1 in
  Result.get_ok (Admission.admit q ~now_s:0.0 r);
  Option.get (Batcher.form q ~now_s:0.0 ~max_batch:1 ~batch_id:0)

(* [f ()] and the result-cache hits and misses it caused. *)
let cache_moves f =
  let s0 = Rc.stats () in
  let v = f () in
  let s1 = Rc.stats () in
  (v, (s1.Rc.hits - s0.Rc.hits, s1.Rc.misses - s0.Rc.misses))

(* A warm executor call charges exactly what [run_benchmark] composes,
   bit for bit, and touches the result cache exactly as it does: every
   registered benchmark on every registered system, under the paper
   configuration and the one with program-level parallelism on. *)
let test_executor_matches_run_benchmark () =
  List.iter
    (fun config ->
      List.iter
        (fun (bname, bench) ->
          List.iter
            (fun (sname, sys) ->
              let what = Printf.sprintf "%s@%s progpar=%b" bname sname config.CC.progpar in
              let b =
                batch_of (Request.make ~config ~id:0 ~bench:bname ~system:sname ~arrival_s:0.0 ())
              in
              ignore (Runner.run_benchmark ~config sys bench);
              ignore (Loadgen.workload_executor ~now_s:0.0 b);
              let direct, direct_moves =
                cache_moves (fun () -> (Runner.run_benchmark ~config sys bench).Runner.br_seconds)
              in
              let served, served_moves =
                cache_moves (fun () -> Loadgen.workload_executor ~now_s:0.0 b)
              in
              Alcotest.(check int64) (what ^ ": seconds bitwise") (Int64.bits_of_float direct)
                (Int64.bits_of_float served);
              Alcotest.(check (pair int int)) (what ^ ": cache hits and misses") direct_moves
                served_moves;
              Alcotest.(check (pair int int)) (what ^ ": one hit per segment")
                (List.length bench.Specs.segments, 0) served_moves)
            Runner.systems)
        Specs.benchmarks)
    [ CC.paper (); CC.paper ~progpar:true () ]

(* A warm executor call is a plan lookup and one result-cache hit per
   segment: a few dozen words, however the program renders. *)
let test_warm_executor_allocation () =
  List.iter
    (fun bench ->
      let b = batch_of (Request.make ~id:0 ~bench ~system:"cinnamon-4" ~arrival_s:0.0 ()) in
      let segments =
        List.length (Result.get_ok (Specs.find_benchmark bench)).Specs.segments
      in
      let calls = 64 in
      for _ = 1 to 4 do
        ignore (Loadgen.workload_executor ~now_s:0.0 b)
      done;
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Loadgen.workload_executor ~now_s:0.0 b)
      done;
      let per_segment =
        (Gc.minor_words () -. before) /. Float.of_int (calls * segments)
      in
      if per_segment >= 64.0 then
        Alcotest.failf "warm %s executor: %.1f minor words per segment, expected < 64" bench
          per_segment)
    [ "bootstrap"; "resnet"; "helr" ]

(* An unknown benchmark fails its batch with the registry's typed
   message, and the failure is not remembered: a later call fails the
   same way. *)
let test_executor_unknown_name () =
  let b =
    batch_of (Request.make ~id:0 ~bench:"no-such-bench" ~system:"cinnamon-4" ~arrival_s:0.0 ())
  in
  let failure () =
    match Loadgen.workload_executor ~now_s:0.0 b with
    | s -> Alcotest.failf "expected Unknown_name, got %g s" s
    | exception Cinnamon_util.Error.Error e -> e
  in
  let expected =
    match Specs.find_benchmark "no-such-bench" with
    | Ok _ -> Alcotest.fail "no-such-bench is registered"
    | Error msg -> Cinnamon_util.Error.make Cinnamon_util.Error.Unknown_name msg
  in
  let first = failure () in
  Alcotest.(check string) "typed message" (Cinnamon_util.Error.to_string expected)
    (Cinnamon_util.Error.to_string first);
  Alcotest.(check string) "fails again the same way" (Cinnamon_util.Error.to_string first)
    (Cinnamon_util.Error.to_string (failure ()))

(* --- tracing off costs nothing; the queue's depth is its length ------- *)

module Tel = Cinnamon_telemetry.Telemetry

(* With the sink off, a replay that completes, sheds and rejects
   requests on two nodes leaves no event behind. *)
let test_replay_untraced_records_nothing () =
  Alcotest.(check bool) "sink disabled" false (Tel.enabled ());
  let before = Tel.event_count () in
  let calls = ref 0 in
  let arrivals =
    List.init 40 (fun id ->
        let arrival_s = 0.1 *. Float.of_int id in
        let slack = if id mod 2 = 0 then 0.5 else 100.0 in
        req ~deadline_s:(arrival_s +. slack) ~id ~arrival_s ())
  in
  let capacity = { Node.default_capacity with Node.workers = 1; queue_capacity = 4; max_batch = 2 } in
  let _, rs =
    run_collecting
      { Fleet.default_config with Fleet.fc_nodes = 2 }
      ~make_node:(fun _ -> Node.make ~capacity ~execute:(const_executor ~service:1.0 calls) ())
      ~arrivals
  in
  List.iter
    (fun outcome ->
      Alcotest.(check bool) ("some request " ^ outcome) true (count outcome rs > 0))
    [ "completed"; "shed"; "rejected" ];
  Alcotest.(check int) "no events recorded" before (Tel.event_count ())

(* With the sink off, completing a request costs its response and its
   SLO sample: no trace event's arguments or name are built for it. *)
let test_completion_allocation () =
  let capacity =
    { Node.default_capacity with Node.workers = 4; queue_capacity = 64; max_batch = 8 }
  in
  let completed = ref 0 in
  let e =
    Engine.create
      ~node:(Node.make ~capacity ~execute:(fun ~now_s:_ _ -> 1.0) ())
      ~respond:(fun _ -> incr completed)
  in
  let next_batch_id = ref 0 and words = ref 0.0 and counted = ref 0 in
  for round = 0 to 19 do
    let now_s = 10.0 *. Float.of_int round in
    for k = 0 to 31 do
      Engine.offer e ~now_s (req ~id:((32 * round) + k) ~arrival_s:now_s ())
    done;
    List.iter
      (fun b -> Engine.commit e ~now_s b (Engine.execute e ~now_s b))
      (Engine.form_batches e ~now_s ~next_batch_id);
    let before_n = !completed and before = Gc.minor_words () in
    Engine.complete_due e ~now_s:(now_s +. 1.0);
    let after = Gc.minor_words () in
    (* the first rounds warm up *)
    if round > 3 then begin
      words := !words +. (after -. before);
      counted := !counted + (!completed - before_n)
    end
  done;
  Alcotest.(check int) "every request completed" (16 * 32) !counted;
  let per_request = !words /. Float.of_int !counted in
  if per_request >= 24.0 then
    Alcotest.failf "completing a request: %.1f minor words, expected < 24" per_request

type admission_op = Admit of int * float * float | Take of int * int | Shed_at of float

let admission_op_to_string = function
  | Admit (p, a, d) -> Printf.sprintf "admit prio %d @%g deadline +%g" p a d
  | Take (limit, m) -> Printf.sprintf "take %d of ids = 0 mod %d" limit (m + 1)
  | Shed_at s -> Printf.sprintf "shed @%g" s

(* After any sequence of admissions, takes and sheds, the queue's
   depth is the length of its list, and admission refuses as full
   exactly when that length has reached the capacity. *)
let test_admission_depth_is_length =
  let gen =
    let open QCheck2.Gen in
    let time = map (fun q -> Float.of_int q /. 4.0) (int_bound 40) in
    list_size (int_range 1 80)
      (frequency
         [
           (5, map3 (fun p a d -> Admit (p, a, d)) (int_bound 2) time time);
           (2, map2 (fun limit m -> Take (limit, m)) (int_bound 4) (int_bound 2));
           (2, map (fun s -> Shed_at s) time);
         ])
  in
  let capacity = 6 in
  let prop ops =
    let q = Admission.create ~capacity in
    let next_id = ref 0 in
    List.for_all
      (fun op ->
        let length_before = List.length (Admission.queued q) in
        let refused_full =
          match op with
          | Admit (p, arrival_s, d) -> (
            let priority = match p with 0 -> Request.High | 1 -> Request.Normal | _ -> Request.Low in
            incr next_id;
            match
              Admission.admit q ~now_s:arrival_s
                (req ~priority ~deadline_s:(arrival_s +. d) ~id:!next_id ~arrival_s ())
            with
            | Error (Admission.Queue_full _) -> Some true
            | _ -> Some false)
          | Take (limit, m) ->
            ignore
              (Admission.take q (fun (r : Request.t) -> r.Request.req_id mod (m + 1) = 0) ~limit);
            None
          | Shed_at now_s ->
            ignore (Admission.shed_expired q ~now_s);
            None
        in
        let depth = Admission.depth q and length = List.length (Admission.queued q) in
        if depth <> length then
          QCheck2.Test.fail_reportf "%s: depth %d, queued %d" (admission_op_to_string op) depth
            length
        else if refused_full <> None && refused_full <> Some (length_before >= capacity) then
          QCheck2.Test.fail_reportf "%s: full refusal at length %d" (admission_op_to_string op)
            length_before
        else true)
      ops
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"admission depth = length of queued"
       ~print:(fun ops -> String.concat "\n" (List.map admission_op_to_string ops))
       gen prop)

let suite =
  ( "serve",
    [
      Alcotest.test_case "request validation and slots" `Quick test_request_validation;
      Alcotest.test_case "queue-full rejection" `Quick test_queue_full_rejection;
      Alcotest.test_case "expired on arrival" `Quick test_expired_on_arrival;
      Alcotest.test_case "deadline shed while queued" `Quick test_deadline_shed_while_queued;
      Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
      Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
      Alcotest.test_case "non-transient fails immediately" `Quick
        test_nontransient_fails_immediately;
      Alcotest.test_case "batching amortizes executor calls" `Quick test_batching_amortizes;
      Alcotest.test_case "batch respects slot cap" `Quick test_batch_respects_slot_cap;
      Alcotest.test_case "incompatible configs split batches" `Quick
        test_incompatible_requests_split_batches;
      Alcotest.test_case "compat key is structural" `Quick test_compat_key_is_structural;
      Alcotest.test_case "batch formation allocation" `Quick test_batcher_form_allocation;
      Alcotest.test_case "shed with nothing expired allocates nothing" `Quick
        test_shed_nothing_expired_allocation;
      Alcotest.test_case "priority orders the queue" `Quick test_priority_orders_queue;
      Alcotest.test_case "drain completes admitted work" `Quick test_drain_completes_admitted;
      Alcotest.test_case "loadgen deterministic and amortized" `Quick
        test_loadgen_deterministic_and_amortized;
      Alcotest.test_case "every offered request accounted" `Quick
        test_every_offered_request_accounted;
      Alcotest.test_case "slo report json shape" `Quick test_slo_report_json_shape;
      Alcotest.test_case "slo zero-completion serializes" `Quick
        test_slo_zero_completion_serializes;
      Alcotest.test_case "slo merge adds accumulators" `Quick test_slo_merge_adds;
      Alcotest.test_case "node capacity validation" `Quick test_node_capacity_validation;
      Alcotest.test_case "warm executor = run_benchmark" `Slow
        test_executor_matches_run_benchmark;
      Alcotest.test_case "executor unknown benchmark" `Quick test_executor_unknown_name;
      Alcotest.test_case "warm executor allocation" `Quick test_warm_executor_allocation;
      Alcotest.test_case "untraced replay records nothing" `Quick
        test_replay_untraced_records_nothing;
      test_admission_depth_is_length;
      Alcotest.test_case "completion allocation" `Quick test_completion_allocation;
    ] )
