(* Tests for Cinnamon_fleet: router policies, warm-key cache,
   autoscaler hysteresis, trace generation, and the multi-node driver.
   Synthetic constant-service executors throughout — every property
   (balance, locality, backpressure, drain, determinism) is driven on
   the virtual clock without real compiles. *)

open Cinnamon_fleet
module Serve = Cinnamon_serve
module Exec = Cinnamon_exec
module CC = Cinnamon_compiler.Compile_config

let cand ?(load = 0) ?(room = true) ?(warm = false) id =
  { Router.cd_id = id; cd_load = load; cd_has_room = room; cd_warm = warm }

let spec bench w =
  { Serve.Loadgen.cls_bench = bench; cls_system = "cinnamon-4"; cls_weight = w }

(* Heavily skewed three-benchmark mix: three distinct batch
   compatibility keys, one dominant — the shape where locality-aware
   routing should shine against round-robin. *)
let skewed_classes = [ (spec "bootstrap" 0.7, 0.5); (spec "resnet" 0.2, 0.5); (spec "bert" 0.1, 0.5) ]

let trace ?(requests = 200) ?(seed = 42) ?(tenants = 0) ?(skew = 1.0) ~rate () =
  Trace.generate
    {
      Trace.tr_shape = Trace.Poisson { rate_rps = rate };
      tr_requests = requests;
      tr_seed = seed;
      tr_deadline_factor = 20.0;
      tr_compile = CC.paper ();
      tr_tenants = tenants;
      tr_tenant_skew = skew;
    }
    ~classes:skewed_classes

let capacity ?(workers = 2) ?(queue = 32) ?(max_batch = 4) () =
  {
    Serve.Node.workers;
    queue_capacity = queue;
    max_batch;
    max_attempts = 3;
    drain_after_s = None;
  }

let const_node ?(service = 0.5) ~capacity () _id =
  Serve.Node.make ~capacity ~execute:(fun ~now_s:_ _b -> service) ()

let report (r : Fleet.result) =
  Serve.Slo.report r.Fleet.fr_slo
    ~duration_s:(Float.max r.Fleet.fr_makespan_s 1e-9)
    ~compiles:0 ~cache_hits:0

(* --- key cache -------------------------------------------------------- *)

let entry compat =
  {
    Key_cache.en_tenant = Cinnamon_tenant.Tenant_id.default;
    en_epoch = Cinnamon_tenant.Epoch.zero;
    en_compat = compat;
  }

let test_key_cache_mru () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Key_cache.create: capacity_bytes must be >= 1") (fun () ->
      ignore (Key_cache.create ~capacity_bytes:0));
  (* unit-weight entries: a two-byte budget holds two entries *)
  let c = Key_cache.create ~capacity_bytes:2 in
  Alcotest.(check bool) "peek cold" false (Key_cache.mem c (entry "a"));
  Alcotest.(check bool) "first touch misses" false (Key_cache.touch c (entry "a") ~bytes:1);
  Alcotest.(check bool) "peek did not count" true (Key_cache.misses c = 1);
  Alcotest.(check bool) "second touch hits" true (Key_cache.touch c (entry "a") ~bytes:1);
  ignore (Key_cache.touch c (entry "b") ~bytes:1);
  Alcotest.(check bool) "promote on hit" true (Key_cache.touch c (entry "a") ~bytes:1);
  ignore (Key_cache.touch c (entry "c") ~bytes:1);
  (* capacity 2, MRU order was [a; b]: touching c evicts b *)
  Alcotest.(check bool) "lru evicted" false (Key_cache.mem c (entry "b"));
  Alcotest.(check bool) "mru survives" true (Key_cache.mem c (entry "a"));
  Alcotest.(check (list string)) "resident order" [ "c"; "a" ]
    (List.map (fun e -> e.Key_cache.en_compat) (Key_cache.resident c));
  Alcotest.(check int) "hits" 2 (Key_cache.hits c);
  Alcotest.(check int) "misses" 3 (Key_cache.misses c);
  Alcotest.(check int) "miss bytes accounted" 3 (Key_cache.loaded_bytes c);
  Alcotest.(check int) "evictions counted" 1 (Key_cache.evictions c)

(* --- router policies -------------------------------------------------- *)

let test_router_round_robin () =
  let t = Router.create Router.Round_robin in
  let cands = [ cand 0; cand 1; cand 2 ] in
  let picks = List.init 4 (fun _ -> Router.pick t cands) in
  Alcotest.(check (list (option int)))
    "rotates" [ Some 0; Some 1; Some 2; Some 0 ] picks;
  (* cursor sits at 1; node 1 is full -> skipped, not stalled on *)
  let p = Router.pick t [ cand 0; cand ~room:false 1; cand 2 ] in
  Alcotest.(check (option int)) "skips full node" (Some 2) p;
  Alcotest.(check (list (pair string int)))
    "counts decisions" [ ("round_robin", 5) ] (Router.decisions t)

let test_router_least_loaded () =
  let t = Router.create Router.Least_loaded in
  let p = Router.pick t [ cand ~load:2 0; cand ~load:1 1; cand ~load:1 2 ] in
  Alcotest.(check (option int)) "minimum load, tie to lowest id" (Some 1) p;
  let p = Router.pick t [ cand ~load:5 ~room:false 0; cand ~load:9 1 ] in
  Alcotest.(check (option int)) "full nodes excluded" (Some 1) p;
  let p = Router.pick t [ cand ~room:false 0; cand ~room:false 1 ] in
  Alcotest.(check (option int)) "all full -> backpressure" None p;
  Alcotest.(check (list (pair string int)))
    "fleet_full counted" [ ("least_loaded", 2); ("fleet_full", 1) ] (Router.decisions t)

let test_router_locality () =
  let t = Router.create Router.Locality in
  let p = Router.pick t [ cand ~load:0 0; cand ~load:3 ~warm:true 1; cand ~load:1 ~warm:true 2 ] in
  Alcotest.(check (option int)) "least-loaded among warm" (Some 2) p;
  let p = Router.pick t [ cand ~load:4 0; cand ~load:7 1 ] in
  Alcotest.(check (option int)) "no warm node -> spill to least-loaded" (Some 0) p;
  let p = Router.pick t [ cand ~load:0 0; cand ~room:false ~warm:true 1 ] in
  Alcotest.(check (option int)) "warm but full -> spill" (Some 0) p;
  Alcotest.(check (list (pair string int)))
    "warm vs spill decisions" [ ("locality_warm", 1); ("locality_spill", 2) ]
    (Router.decisions t)

let test_router_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "name round-trips" true
        (Router.policy_of_string (Router.policy_name p) = Some p))
    Router.all_policies;
  Alcotest.(check bool) "short spellings" true
    (Router.policy_of_string "loc" = Some Router.Locality
    && Router.policy_of_string "rr" = Some Router.Round_robin
    && Router.policy_of_string "ll" = Some Router.Least_loaded
    && Router.policy_of_string "nope" = None)

(* --- autoscaler ------------------------------------------------------- *)

let base_cfg =
  {
    Autoscaler.as_min_nodes = 1;
    as_max_nodes = 8;
    as_interval_s = 1.0;
    as_cooldown_s = 0.0;
    as_up_depth = 4.0;
    as_down_depth = 0.5;
    as_up_p99_ms = None;
  }

let sg ?(now = 0.0) ?(nodes = 2) ?(depth = 0.0) ?p99 () =
  { Autoscaler.sg_now_s = now; sg_nodes = nodes; sg_mean_depth = depth; sg_p99_ms = p99 }

let test_autoscaler_thresholds_exact () =
  let t = Autoscaler.create base_cfg in
  (* depth exactly AT the threshold must hold — triggers are strict *)
  Alcotest.(check bool) "at up threshold holds" true
    (Autoscaler.decide t (sg ~depth:4.0 ()) = None);
  (match Autoscaler.decide t (sg ~now:1.0 ~depth:4.01 ()) with
  | Some ev ->
    Alcotest.(check bool) "above up threshold scales up" true
      (ev.Autoscaler.ev_action = Autoscaler.Scale_up);
    Alcotest.(check int) "before" 2 ev.Autoscaler.ev_nodes_before;
    Alcotest.(check int) "after" 3 ev.Autoscaler.ev_nodes_after
  | None -> Alcotest.fail "expected scale-up above threshold");
  let t = Autoscaler.create base_cfg in
  Alcotest.(check bool) "at down threshold holds" true
    (Autoscaler.decide t (sg ~depth:0.5 ()) = None);
  (match Autoscaler.decide t (sg ~now:1.0 ~depth:0.49 ()) with
  | Some ev ->
    Alcotest.(check bool) "below down threshold scales down" true
      (ev.Autoscaler.ev_action = Autoscaler.Scale_down)
  | None -> Alcotest.fail "expected scale-down below threshold");
  (* bounds clamp both directions *)
  let t = Autoscaler.create base_cfg in
  Alcotest.(check bool) "min_nodes blocks down" true
    (Autoscaler.decide t (sg ~nodes:1 ~depth:0.0 ()) = None);
  Alcotest.(check bool) "max_nodes blocks up" true
    (Autoscaler.decide t (sg ~nodes:8 ~depth:100.0 ()) = None)

let test_autoscaler_cooldown () =
  let t = Autoscaler.create { base_cfg with Autoscaler.as_cooldown_s = 10.0 } in
  Alcotest.(check bool) "first action fires" true
    (Autoscaler.decide t (sg ~now:0.0 ~depth:9.0 ()) <> None);
  Alcotest.(check bool) "held inside cooldown" true
    (Autoscaler.decide t (sg ~now:5.0 ~depth:9.0 ~nodes:3 ()) = None);
  Alcotest.(check bool) "held at 9.99s" true
    (Autoscaler.decide t (sg ~now:9.99 ~depth:9.0 ~nodes:3 ()) = None);
  Alcotest.(check bool) "fires exactly when cooldown lapses" true
    (Autoscaler.decide t (sg ~now:10.0 ~depth:9.0 ~nodes:3 ()) <> None);
  Alcotest.(check int) "both events recorded, oldest first" 2
    (List.length (Autoscaler.events t));
  Alcotest.(check (float 1e-12)) "event order" 0.0
    (List.hd (Autoscaler.events t)).Autoscaler.ev_time_s

let test_autoscaler_p99_trigger () =
  let cfg = { base_cfg with Autoscaler.as_up_p99_ms = Some 100.0 } in
  let t = Autoscaler.create cfg in
  (match Autoscaler.decide t (sg ~depth:0.0 ~p99:150.0 ()) with
  | Some ev ->
    Alcotest.(check bool) "latency trigger scales up" true
      (ev.Autoscaler.ev_action = Autoscaler.Scale_up)
  | None -> Alcotest.fail "expected p99-driven scale-up");
  (* shallow queues but p99 exactly at the limit: down allowed *)
  let t = Autoscaler.create cfg in
  (match Autoscaler.decide t (sg ~depth:0.0 ~p99:100.0 ()) with
  | Some ev ->
    Alcotest.(check bool) "down allowed when p99 ok" true
      (ev.Autoscaler.ev_action = Autoscaler.Scale_down)
  | None -> Alcotest.fail "expected scale-down");
  (* no completions yet -> no latency signal -> no latency action *)
  let t = Autoscaler.create cfg in
  (match Autoscaler.decide t (sg ~depth:0.0 ()) with
  | Some ev ->
    Alcotest.(check bool) "None p99 treated as ok" true
      (ev.Autoscaler.ev_action = Autoscaler.Scale_down)
  | None -> Alcotest.fail "expected scale-down with absent p99")

let test_autoscaler_validation () =
  let bad cfg =
    match Autoscaler.validate cfg with
    | () -> Alcotest.fail "expected a typed invalid-input error"
    | exception Cinnamon_util.Error.Error e ->
      Alcotest.(check int) "invalid-input exit code" 2
        (Cinnamon_util.Error.exit_code e.Cinnamon_util.Error.kind)
  in
  bad { base_cfg with Autoscaler.as_min_nodes = 0 };
  bad { base_cfg with Autoscaler.as_max_nodes = 0 };
  bad { base_cfg with Autoscaler.as_interval_s = 0.0 };
  (* inverted deadband would flap forever *)
  bad { base_cfg with Autoscaler.as_up_depth = 0.4; as_down_depth = 0.5 }

(* --- traces ----------------------------------------------------------- *)

let test_trace_deterministic () =
  let a = trace ~requests:100 ~seed:9 ~rate:5.0 () in
  let b = trace ~requests:100 ~seed:9 ~rate:5.0 () in
  Alcotest.(check int) "count" 100 (List.length a);
  Alcotest.(check (list (pair int string)))
    "same seed, same trace"
    (List.map (fun (r : Serve.Request.t) -> (r.Serve.Request.req_id, r.Serve.Request.req_bench)) a)
    (List.map (fun (r : Serve.Request.t) -> (r.Serve.Request.req_id, r.Serve.Request.req_bench)) b);
  List.iter2
    (fun (x : Serve.Request.t) (y : Serve.Request.t) ->
      Alcotest.(check (float 0.0)) "same arrivals" x.Serve.Request.req_arrival_s
        y.Serve.Request.req_arrival_s)
    a b;
  let sorted = ref true and prev = ref neg_infinity in
  List.iter
    (fun (r : Serve.Request.t) ->
      if r.Serve.Request.req_arrival_s < !prev then sorted := false;
      prev := r.Serve.Request.req_arrival_s)
    a;
  Alcotest.(check bool) "arrivals nondecreasing" true !sorted;
  let c = trace ~requests:100 ~seed:10 ~rate:5.0 () in
  Alcotest.(check bool) "different seed, different trace" true
    (List.exists2
       (fun (x : Serve.Request.t) (y : Serve.Request.t) ->
         x.Serve.Request.req_arrival_s <> y.Serve.Request.req_arrival_s)
       a c)

let test_trace_diurnal () =
  let cfg =
    {
      Trace.tr_shape = Trace.Diurnal { base_rps = 2.0; peak_rps = 8.0; period_s = 30.0 };
      tr_requests = 60;
      tr_seed = 3;
      tr_deadline_factor = 10.0;
      tr_compile = CC.paper ();
      tr_tenants = 0;
      tr_tenant_skew = 1.0;
    }
  in
  let a = Trace.generate cfg ~classes:skewed_classes in
  Alcotest.(check int) "count" 60 (List.length a);
  Alcotest.(check string) "shape name" "diurnal" (Trace.shape_name cfg.Trace.tr_shape);
  (* inverted wave is a typed config error *)
  match
    Trace.validate
      { cfg with Trace.tr_shape = Trace.Diurnal { base_rps = 8.0; peak_rps = 2.0; period_s = 30.0 } }
  with
  | () -> Alcotest.fail "expected a typed invalid-input error"
  | exception Cinnamon_util.Error.Error _ -> ()

(* --- fleet driver ----------------------------------------------------- *)

let mk_req ~id ~arrival_s =
  Serve.Request.make ~id ~bench:"bootstrap" ~system:"cinnamon-4" ~arrival_s ()

let test_least_loaded_balances () =
  (* 12 simultaneous arrivals over 4 single-worker nodes: live-depth
     routing must spread them within +-1 of each other *)
  let counts = Array.make 4 0 in
  let make_node id =
    Serve.Node.make
      ~capacity:(capacity ~workers:1 ~queue:16 ~max_batch:1 ())
      ~execute:(fun ~now_s:_ (b : Serve.Batcher.batch) ->
        counts.(id) <- counts.(id) + List.length b.Serve.Batcher.requests;
        0.3)
      ()
  in
  let arrivals = List.init 12 (fun id -> mk_req ~id ~arrival_s:0.0) in
  let cfg = { Fleet.default_config with Fleet.fc_nodes = 4 } in
  let r = Fleet.run cfg ~make_node ~arrivals () in
  let rp = report r in
  Alcotest.(check int) "all complete" 12 rp.Serve.Slo.rp_completed;
  let mn = Array.fold_left min max_int counts and mx = Array.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "per-node share within +-1 (got %d..%d)" mn mx)
    true
    (mx - mn <= 1)

(* one program's key set per node, 0.25 s to load a cold one *)
let one_slot_tenancy = Fleet.default_tenancy ~key_sets:1 ~key_load_s:0.25 (CC.paper ())

let run_policy policy =
  let cfg =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 4;
      fc_policy = policy;
      fc_tenancy = one_slot_tenancy;
    }
  in
  Fleet.run cfg ~make_node:(const_node ~capacity:(capacity ()) ()) ~arrivals:(trace ~rate:8.0 ())
    ()

let test_locality_beats_round_robin () =
  let loc = run_policy Router.Locality in
  let rr = run_policy Router.Round_robin in
  Alcotest.(check int) "same offered load" (report rr).Serve.Slo.rp_offered
    (report loc).Serve.Slo.rp_offered;
  Alcotest.(check bool)
    (Printf.sprintf "locality hit rate beats round-robin (%.2f vs %.2f)"
       (Fleet.key_hit_rate loc) (Fleet.key_hit_rate rr))
    true
    (Fleet.key_hit_rate loc > Fleet.key_hit_rate rr);
  Alcotest.(check bool) "locality is measurably warm" true (Fleet.key_hit_rate loc > 0.5);
  Alcotest.(check bool) "warm routing decisions recorded" true
    (List.mem_assoc "locality_warm" loc.Fleet.fr_router)

let test_fleet_full_rejection () =
  (* one node, one worker, queue of one: a burst of six leaves five
     with nowhere to go — the router finds no room, and the node
     refuses them with its own typed reason, all accounted *)
  let cfg =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 1;
      fc_policy = Router.Least_loaded;
    }
  in
  let make_node = const_node ~service:10.0 ~capacity:(capacity ~workers:1 ~queue:1 ~max_batch:1 ()) () in
  let arrivals = List.init 6 (fun id -> mk_req ~id ~arrival_s:0.0) in
  let r, responses = Test_serve.run_collecting cfg ~make_node ~arrivals in
  let rp = report r in
  Alcotest.(check int) "offered" 6 rp.Serve.Slo.rp_offered;
  Alcotest.(check int) "queue-full rejections" 5 rp.Serve.Slo.rp_rejected_full;
  Alcotest.(check int) "accounting identity holds" rp.Serve.Slo.rp_offered
    (rp.Serve.Slo.rp_completed + rp.Serve.Slo.rp_shed + rp.Serve.Slo.rp_failed
   + rp.Serve.Slo.rp_rejected_full + rp.Serve.Slo.rp_rejected_expired
   + rp.Serve.Slo.rp_rejected_closed + rp.Serve.Slo.rp_rejected_fleet);
  Alcotest.(check bool) "router counted the backpressure" true
    (List.assoc "fleet_full" r.Fleet.fr_router = 5);
  match
    List.find_map
      (fun (resp : Serve.Response.t) ->
        match resp.Serve.Response.outcome with
        | Serve.Response.Rejected (Serve.Admission.Queue_full { capacity }) -> Some capacity
        | _ -> None)
      responses
  with
  | Some capacity -> Alcotest.(check int) "typed error carries queue capacity" 1 capacity
  | None -> Alcotest.fail "expected a Queue_full response"

let test_one_node_drain () =
  (* the node's own drain deadline closes admission at t=0.05: the two
     early requests drain to completion, the late one is rejected
     Closed — nothing vanishes *)
  let cfg = { Fleet.default_config with Fleet.fc_nodes = 1 } in
  let make_node =
    const_node ~service:1.0
      ~capacity:{ (capacity ~workers:1 ~max_batch:1 ()) with Serve.Node.drain_after_s = Some 0.05 }
      ()
  in
  let arrivals =
    [ mk_req ~id:0 ~arrival_s:0.0; mk_req ~id:1 ~arrival_s:0.01; mk_req ~id:2 ~arrival_s:1.0 ]
  in
  let r, responses = Test_serve.run_collecting cfg ~make_node ~arrivals in
  Alcotest.(check int) "every request has a response" 3 (List.length responses);
  Alcotest.(check int) "admitted requests complete" 2 (report r).Serve.Slo.rp_completed;
  match
    List.find
      (fun (resp : Serve.Response.t) -> resp.Serve.Response.req.Serve.Request.req_id = 2)
      responses
  with
  | { Serve.Response.outcome = Serve.Response.Rejected Serve.Admission.Closed; _ } -> ()
  | resp ->
    Alcotest.failf "expected Rejected Closed, got %s"
      (Serve.Response.outcome_name resp.Serve.Response.outcome)

let test_follow_ups_after_rejection () =
  (* closed-loop clients react to every terminal response, rejections
     included: each of the burst's five queue-full refusals injects one
     follow-up that arrives after the worker frees up *)
  let cfg = { Fleet.default_config with Fleet.fc_nodes = 1 } in
  let make_node =
    const_node ~service:1.0 ~capacity:(capacity ~workers:1 ~queue:1 ~max_batch:1 ()) ()
  in
  let next_id = ref 6 in
  let terminals = ref 0 in
  let on_terminal (resp : Serve.Response.t) =
    incr terminals;
    match resp.Serve.Response.outcome with
    | Serve.Response.Rejected _ ->
      let id = !next_id in
      incr next_id;
      [ mk_req ~id ~arrival_s:(Serve.Response.terminal_s resp +. (10.0 *. Float.of_int (id - 5))) ]
    | _ -> []
  in
  let arrivals = List.init 6 (fun id -> mk_req ~id ~arrival_s:0.0) in
  let r = Fleet.run ~on_terminal cfg ~make_node ~arrivals () in
  let rp = report r in
  Alcotest.(check int) "burst plus one follow-up per rejection" 11 rp.Serve.Slo.rp_offered;
  Alcotest.(check int) "burst rejections" 5 rp.Serve.Slo.rp_rejected_full;
  Alcotest.(check int) "first request and every follow-up complete" 6 rp.Serve.Slo.rp_completed;
  Alcotest.(check int) "every offer terminal" 11 !terminals

let test_scale_up_under_load () =
  let cfg =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 1;
      fc_autoscale =
        Some
          {
            base_cfg with
            Autoscaler.as_max_nodes = 4;
            as_interval_s = 1.0;
            as_cooldown_s = 0.0;
            as_up_depth = 2.0;
          };
    }
  in
  let make_node = const_node ~capacity:(capacity ~workers:1 ~queue:64 ~max_batch:1 ()) () in
  let r = Fleet.run cfg ~make_node ~arrivals:(trace ~requests:100 ~rate:10.0 ()) () in
  Alcotest.(check bool) "scaled up under overload" true (r.Fleet.fr_nodes_peak > 1);
  Alcotest.(check bool) "events recorded" true (r.Fleet.fr_events <> []);
  let first = List.hd r.Fleet.fr_events in
  Alcotest.(check bool) "first action is up" true
    (first.Autoscaler.ev_action = Autoscaler.Scale_up);
  Alcotest.(check bool) "fires at an evaluation instant" true
    (Float.rem first.Autoscaler.ev_time_s 1.0 < 1e-9);
  Alcotest.(check bool) "first breach is the first eval" true
    (first.Autoscaler.ev_time_s <= 2.0)

let test_scale_down_drains_gracefully () =
  (* two nodes, nearly idle: the scaler drains one; every admitted
     request still reaches a terminal completion *)
  let cfg =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 2;
      fc_autoscale =
        Some
          {
            base_cfg with
            Autoscaler.as_max_nodes = 4;
            as_interval_s = 1.0;
            as_cooldown_s = 0.0;
            as_down_depth = 0.6;
          };
    }
  in
  let make_node = const_node ~service:0.2 ~capacity:(capacity ~workers:1 ()) () in
  let r = Fleet.run cfg ~make_node ~arrivals:(trace ~requests:8 ~rate:0.5 ()) () in
  let rp = report r in
  Alcotest.(check int) "nothing lost in the drain" 8 rp.Serve.Slo.rp_completed;
  Alcotest.(check int) "fleet shrank to one node" 1 r.Fleet.fr_nodes_final;
  Alcotest.(check bool) "scale-down event recorded" true
    (List.exists
       (fun (e : Autoscaler.event) -> e.Autoscaler.ev_action = Autoscaler.Scale_down)
       r.Fleet.fr_events)

let test_fleet_bit_identical_across_jobs () =
  (* the headline determinism property: routing, batching, penalties
     and scaling all happen on the virtual clock, so results cannot
     depend on how wide the real executor pool is *)
  let run jobs =
    let pool = Exec.Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
    let cfg =
      {
        Fleet.fc_nodes = 3;
        fc_policy = Router.Locality;
        fc_tenancy = one_slot_tenancy;
        fc_autoscale =
          Some
            {
              base_cfg with
              Autoscaler.as_max_nodes = 6;
              as_interval_s = 2.0;
              as_cooldown_s = 5.0;
              as_up_depth = 3.0;
            };
      }
    in
    let make_node _id =
      Serve.Node.make
        ~capacity:(capacity ())
        ~execute:(fun ~now_s:_ (b : Serve.Batcher.batch) ->
          0.3 +. (0.1 *. Float.of_int (List.length b.Serve.Batcher.requests)))
        ()
    in
    Fleet.run ~pool cfg ~make_node ~arrivals:(trace ~requests:150 ~rate:8.0 ()) ()
  in
  let a = run 1 and b = run 4 in
  let ra = report a and rb = report b in
  Alcotest.(check int) "completed identical" ra.Serve.Slo.rp_completed rb.Serve.Slo.rp_completed;
  Alcotest.(check int) "batches identical" ra.Serve.Slo.rp_batches rb.Serve.Slo.rp_batches;
  Alcotest.(check int) "sheds identical" ra.Serve.Slo.rp_shed rb.Serve.Slo.rp_shed;
  Alcotest.(check (option (float 0.0))) "p99 bit-identical" ra.Serve.Slo.rp_p99_ms
    rb.Serve.Slo.rp_p99_ms;
  Alcotest.(check (float 0.0)) "makespan bit-identical" a.Fleet.fr_makespan_s
    b.Fleet.fr_makespan_s;
  Alcotest.(check (list (pair string int))) "router decisions identical" a.Fleet.fr_router
    b.Fleet.fr_router;
  Alcotest.(check int) "key hits identical" a.Fleet.fr_key_hits b.Fleet.fr_key_hits;
  Alcotest.(check int) "key misses identical" a.Fleet.fr_key_misses b.Fleet.fr_key_misses;
  Alcotest.(check int) "scaling events identical" (List.length a.Fleet.fr_events)
    (List.length b.Fleet.fr_events)

(* Bad serving-bench input fails with a typed Invalid_input before any
   calibration run: a zero class weight or a NaN overload used to reach
   Request.make as a NaN arrival time. *)
let test_bench_input_typed () =
  let zero_weight = [ spec "bootstrap" 0.0 ] in
  List.iter
    (fun (name, run) ->
      match run () with
      | () -> Alcotest.failf "%s: expected a typed error" name
      | exception Cinnamon_util.Error.Error e ->
        Alcotest.(check bool) (name ^ " raises Invalid_input") true
          (e.Cinnamon_util.Error.kind = Cinnamon_util.Error.Invalid_input))
    [
      ( "Fleet_bench 0.0 class weight",
        fun () ->
          ignore (Fleet_bench.run { Fleet_bench.quick with Fleet_bench.fb_mix = zero_weight; fb_jobs = 1 }) );
      ( "Tenant_bench 0.0 class weight",
        fun () ->
          ignore (Tenant_bench.run { Tenant_bench.quick with Tenant_bench.tb_mix = zero_weight; tb_jobs = 1 }) );
      ( "Fleet_bench NaN overload",
        fun () ->
          ignore (Fleet_bench.run { Fleet_bench.quick with Fleet_bench.fb_overload = Float.nan; fb_jobs = 1 })
      );
      ( "Loadtest NaN overload",
        fun () ->
          ignore
            (Loadtest.run
               { Loadtest.quick with Loadtest.lg_mode = Loadtest.Open_loop { overload = Float.nan }; lg_jobs = 1 })
      );
    ]

(* The serving benches' documents do not depend on the pool width: one
   domain is the sequential reference.  The [jobs] field echoes the
   configured width, so every document is rendered with it zeroed. *)
let test_bench_output_independent_of_jobs () =
  let same what widths render =
    let reference = render 1 in
    List.iter
      (fun jobs ->
        Alcotest.(check string) (Printf.sprintf "%s at --jobs %d" what jobs) reference (render jobs))
      widths
  in
  same "tenant_serving" [ 2; 3 ] (fun jobs ->
      let r = Tenant_bench.run { Tenant_bench.quick with Tenant_bench.tb_jobs = jobs } in
      Cinnamon_util.Json.to_string (Tenant_bench.result_json { r with Tenant_bench.tbr_jobs = 0 }));
  same "serve_fleet" [ 2 ] (fun jobs ->
      let r = Fleet_bench.run { Fleet_bench.quick with Fleet_bench.fb_jobs = jobs } in
      Cinnamon_util.Json.to_string (Fleet_bench.result_json { r with Fleet_bench.fbr_jobs = 0 }))

let suite =
  ( "fleet",
    [
      Alcotest.test_case "key cache mru semantics" `Quick test_key_cache_mru;
      Alcotest.test_case "router round-robin" `Quick test_router_round_robin;
      Alcotest.test_case "router least-loaded" `Quick test_router_least_loaded;
      Alcotest.test_case "router locality" `Quick test_router_locality;
      Alcotest.test_case "router policy names" `Quick test_router_policy_names;
      Alcotest.test_case "autoscaler thresholds exact" `Quick test_autoscaler_thresholds_exact;
      Alcotest.test_case "autoscaler cooldown hysteresis" `Quick test_autoscaler_cooldown;
      Alcotest.test_case "autoscaler p99 trigger" `Quick test_autoscaler_p99_trigger;
      Alcotest.test_case "autoscaler config validation" `Quick test_autoscaler_validation;
      Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
      Alcotest.test_case "trace diurnal" `Quick test_trace_diurnal;
      Alcotest.test_case "least-loaded balances depth" `Quick test_least_loaded_balances;
      Alcotest.test_case "locality beats round-robin" `Quick test_locality_beats_round_robin;
      Alcotest.test_case "fleet-full rejection typed" `Quick test_fleet_full_rejection;
      Alcotest.test_case "one-node fleet honours drain_after_s" `Quick test_one_node_drain;
      Alcotest.test_case "follow-ups after rejections" `Quick test_follow_ups_after_rejection;
      Alcotest.test_case "scale-up under load" `Quick test_scale_up_under_load;
      Alcotest.test_case "scale-down drains gracefully" `Quick test_scale_down_drains_gracefully;
      Alcotest.test_case "bit-identical across jobs" `Quick test_fleet_bit_identical_across_jobs;
      Alcotest.test_case "bad bench input is a typed error" `Quick test_bench_input_typed;
      Alcotest.test_case "bench output independent of jobs" `Quick
        test_bench_output_independent_of_jobs;
    ] )
