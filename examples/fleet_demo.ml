(* The fleet layer on one page: three serving nodes behind a
   locality-aware router, a two-benchmark mix so requests carry two
   distinct batch compatibility keys, and an autoscaler watching the
   queues.  Shows the Node interface (one record: execute + capacity),
   the warm-key cache routing, and the merged fleet SLO report.

   Run with:  dune exec examples/fleet_demo.exe *)

module Exec = Cinnamon_exec
module Serve = Cinnamon_serve
module Fleet = Cinnamon_fleet

let () =
  let pool = Exec.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  (* Calibrate the two workload classes (also pre-warms the compile
     cache), then derive the arrival rate from the fleet's capacity. *)
  let mix =
    [
      { Serve.Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.7 };
      { Serve.Loadgen.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.3 };
    ]
  in
  let compile = Cinnamon_compiler.Compile_config.paper () in
  let classes = Serve.Loadgen.calibrate ~pool ~compile mix in
  let mean_service = Serve.Loadgen.mean_service classes in
  let capacity = { Serve.Node.default_capacity with Serve.Node.workers = 2; queue_capacity = 16 } in
  let nodes = 3 in
  let rate = 1.3 *. Float.of_int (nodes * 2) /. mean_service in
  let arrivals =
    Fleet.Trace.generate
      {
        Fleet.Trace.tr_shape = Fleet.Trace.Poisson { rate_rps = rate };
        tr_requests = 120;
        tr_seed = 7;
        tr_deadline_factor = 6.0;
        tr_compile = compile;
        tr_tenants = 0;
        tr_tenant_skew = 1.0;
      }
      ~classes
  in
  (* Every node implements the same typed Node interface — here all
     homogeneous, all running the real compile+simulate executor. *)
  let make_node id =
    Serve.Node.make
      ~name:(Printf.sprintf "node%d" id)
      ~capacity ~execute:Serve.Loadgen.workload_executor ()
  in
  let cfg =
    {
      Fleet.Fleet.fc_nodes = nodes;
      fc_policy = Fleet.Router.Locality;
      fc_autoscale = Some { Fleet.Autoscaler.default with Fleet.Autoscaler.as_max_nodes = 6 };
      fc_collect_responses = false;
      (* one tenant; each node's HBM holds one program's key set, and
         loading a cold one costs half a mean service time *)
      fc_tenancy = Fleet.Fleet.default_tenancy ~key_sets:1 ~key_load_s:(0.5 *. mean_service) compile;
    }
  in
  let r = Fleet.Fleet.run ~pool cfg ~make_node ~arrivals () in
  let report =
    Serve.Slo.report r.Fleet.Fleet.fr_slo
      ~duration_s:(Float.max r.Fleet.Fleet.fr_makespan_s 1e-9)
      ~compiles:0 ~cache_hits:0
  in
  Printf.printf "=== fleet: %d nodes, locality routing, autoscaler on ===\n" nodes;
  Serve.Slo.print report;
  Printf.printf "router decisions: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Fleet.Fleet.fr_router));
  Printf.printf "warm-key hits %d / misses %d (%.0f%% hit rate)\n" r.Fleet.Fleet.fr_key_hits
    r.Fleet.Fleet.fr_key_misses
    (100.0 *. Fleet.Fleet.key_hit_rate r);
  List.iter
    (fun (e : Fleet.Autoscaler.event) ->
      Printf.printf "autoscaler: t=%.2fs %s %d -> %d (%s)\n" e.Fleet.Autoscaler.ev_time_s
        (Fleet.Autoscaler.action_name e.Fleet.Autoscaler.ev_action)
        e.Fleet.Autoscaler.ev_nodes_before e.Fleet.Autoscaler.ev_nodes_after
        e.Fleet.Autoscaler.ev_reason)
    r.Fleet.Fleet.fr_events;
  assert (report.Serve.Slo.rp_offered = 120);
  print_endline "OK"
