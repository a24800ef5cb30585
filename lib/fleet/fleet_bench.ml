(* The serve-fleet benchmark: sweep fleet sizes under Poisson and
   diurnal traces for each routing policy, and demo the autoscaler.

   For a fleet of n nodes the offered rate is [overload] x the fleet's
   aggregate service capacity (n x workers / calibrated mean service
   time), so every sweep point sees the same per-node pressure and the
   scaling-efficiency curve isolates what the router and the warm-key
   caches cost or save:

       efficiency(n) = (goodput(n) / n) / (goodput(n0) / n0)

   with n0 the smallest swept size.  All three policies replay the
   SAME trace at each size (the trace seed depends on shape and size,
   not policy), so per-policy curves are directly comparable.  The
   warm-key HBM-load penalty is [fb_key_load_factor] x mean service —
   tied to the calibrated workload, not wall-clock guesses.

   Every run is one tenant whose key set fits [fb_key_slots] times into
   a node's key budget, so each node keeps that many programs' keys
   warm.

   The autoscaler demo starts one node under the same traces with the
   offered rate sized for half the sweep's largest fleet, and reports
   the scaling events (time, direction, node count, reason).

   Results merge into BENCH_cinnamon.json under ["serve_fleet"],
   preserving every other key in the file. *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Node = Cinnamon_serve.Node
module Slo = Cinnamon_serve.Slo
module Loadgen = Cinnamon_serve.Loadgen

type config = {
  fb_nodes : int list; (* fleet sizes to sweep, ascending *)
  fb_policies : Router.policy list;
  fb_shapes : [ `Poisson | `Diurnal ] list;
  fb_requests : int; (* per sweep point *)
  fb_mix : Loadgen.class_spec list;
  fb_seed : int;
  fb_overload : float; (* offered load as a multiple of fleet capacity *)
  fb_deadline_factor : float;
  fb_capacity : Node.capacity;
  fb_key_slots : int;
  fb_key_load_factor : float; (* key-load penalty = factor x mean service *)
  fb_autoscale : bool;
  fb_compile : CC.t;
  fb_jobs : int; (* real pool workers; 0 = recommended *)
}

(* A skewed five-class mix: distinct benchmarks mean distinct batch
   compatibility keys, which is what gives locality routing something
   to win on with single-slot key caches. *)
let standard_mix =
  [
    { Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.5 };
    { Loadgen.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.2 };
    { Loadgen.cls_bench = "helr"; cls_system = "cinnamon-4"; cls_weight = 0.15 };
    { Loadgen.cls_bench = "bert"; cls_system = "cinnamon-4"; cls_weight = 0.1 };
    { Loadgen.cls_bench = "bootstrap-21"; cls_system = "cinnamon-4"; cls_weight = 0.05 };
  ]

let quick =
  {
    fb_nodes = [ 1; 2; 4 ];
    fb_policies = Router.all_policies;
    fb_shapes = [ `Poisson; `Diurnal ];
    fb_requests = 600;
    fb_mix = standard_mix;
    fb_seed = 42;
    fb_overload = 1.5;
    fb_deadline_factor = 6.0;
    fb_capacity =
      { Node.workers = 2; queue_capacity = 32; max_batch = 8; max_attempts = 3; drain_after_s = None };
    fb_key_slots = 1;
    fb_key_load_factor = 0.5;
    fb_autoscale = true;
    fb_compile = CC.paper ();
    fb_jobs = 0;
  }

(* The headline sweep: 1 -> 64 nodes under million-request traces. *)
let full = { quick with fb_nodes = [ 1; 2; 4; 8; 16; 32; 64 ]; fb_requests = 1_000_000 }

type point = {
  pt_policy : string;
  pt_shape : string;
  pt_nodes : int;
  pt_report : Slo.report;
  pt_goodput_per_node : float;
  pt_efficiency : float; (* vs the smallest swept size, same policy+shape *)
  pt_key_hit_rate : float;
  pt_router : (string * int) list;
}

type scale_demo = {
  sd_shape : string;
  sd_report : Slo.report;
  sd_events : Autoscaler.event list;
  sd_nodes_peak : int;
  sd_nodes_final : int;
}

type result = {
  fbr_points : point list; (* policy-major, then shape, then nodes *)
  fbr_demos : scale_demo list;
  fbr_base_service : (string * float) list;
  fbr_requests : int;
  fbr_jobs : int;
}

let shape_of_kind ~rate ~requests = function
  | `Poisson -> Trace.Poisson { rate_rps = rate }
  | `Diurnal ->
    (* mean rate = [rate]; three full day/night cycles per trace *)
    let period_s = Float.of_int requests /. rate /. 3.0 in
    Trace.Diurnal { base_rps = 0.4 *. rate; peak_rps = 1.6 *. rate; period_s }

let kind_name = function `Poisson -> "poisson" | `Diurnal -> "diurnal"

let run cfg =
  if cfg.fb_nodes = [] then Error.fail Error.Invalid_input "Fleet_bench: fb_nodes must be non-empty";
  List.iter
    (fun n -> if n < 1 then Error.fail Error.Invalid_input "Fleet_bench: node counts must be >= 1")
    cfg.fb_nodes;
  if cfg.fb_requests < 1 then Error.fail Error.Invalid_input "Fleet_bench: requests must be >= 1";
  if cfg.fb_overload <= 0.0 then Error.fail Error.Invalid_input "Fleet_bench: overload must be > 0";
  if cfg.fb_key_slots < 1 then Error.fail Error.Invalid_input "Fleet_bench: key_slots must be >= 1";
  if cfg.fb_key_load_factor < 0.0 then
    Error.fail Error.Invalid_input "Fleet_bench: key_load_factor must be >= 0";
  let pool = Exec.Pool.create ~jobs:cfg.fb_jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  let calibrated = Loadgen.calibrate ~pool ~compile:cfg.fb_compile cfg.fb_mix in
  let mean_service = Loadgen.mean_service calibrated in
  (* one default tenant whose key set fits [fb_key_slots] times into
     each node's budget: the key caches hold that many programs *)
  let tenancy =
    Fleet.default_tenancy ~key_sets:cfg.fb_key_slots
      ~key_load_s:(cfg.fb_key_load_factor *. mean_service)
      cfg.fb_compile
  in
  let rate_for nodes =
    cfg.fb_overload *. Float.of_int (nodes * cfg.fb_capacity.Node.workers) /. mean_service
  in
  let make_node id =
    Node.make ~name:(Printf.sprintf "node%d" id) ~capacity:cfg.fb_capacity
      ~execute:Loadgen.workload_executor ()
  in
  let shape_idx k = match k with `Poisson -> 1 | `Diurnal -> 2 in
  let trace_for kind nodes =
    let rate = rate_for nodes in
    {
      Trace.tr_shape = shape_of_kind ~rate ~requests:cfg.fb_requests kind;
      tr_requests = cfg.fb_requests;
      (* same trace for every policy at a given (shape, size) *)
      tr_seed = cfg.fb_seed + (1000 * nodes) + shape_idx kind;
      tr_deadline_factor = cfg.fb_deadline_factor;
      tr_compile = cfg.fb_compile;
      tr_tenants = 0;
      tr_tenant_skew = 1.0;
    }
  in
  let run_point policy kind nodes =
    let arrivals = Trace.generate (trace_for kind nodes) ~classes:calibrated in
    let fleet_cfg =
      {
        Fleet.fc_nodes = nodes;
        fc_policy = policy;
        fc_autoscale = None;
        fc_collect_responses = false;
        fc_tenancy = tenancy;
      }
    in
    let since = Exec.Result_cache.stats () in
    let fr = Fleet.run ~pool fleet_cfg ~make_node ~arrivals () in
    let report = Loadgen.report fr.Fleet.fr_slo ~makespan_s:fr.Fleet.fr_makespan_s ~since in
    {
      pt_policy = Router.policy_name policy;
      pt_shape = kind_name kind;
      pt_nodes = nodes;
      pt_report = report;
      pt_goodput_per_node = report.Slo.rp_goodput_rps /. Float.of_int nodes;
      pt_efficiency = 0.0 (* filled against the per-curve baseline below *);
      pt_key_hit_rate = Fleet.key_hit_rate fr;
      pt_router = fr.Fleet.fr_router;
    }
  in
  let points =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun kind ->
            let curve = List.map (run_point policy kind) cfg.fb_nodes in
            let baseline =
              match curve with [] -> 0.0 | p0 :: _ -> p0.pt_goodput_per_node
            in
            List.map
              (fun p ->
                {
                  p with
                  pt_efficiency =
                    (if baseline > 0.0 then p.pt_goodput_per_node /. baseline else 0.0);
                })
              curve)
          cfg.fb_shapes)
      cfg.fb_policies
  in
  let demos =
    if not cfg.fb_autoscale then []
    else
      List.map
        (fun kind ->
          let max_nodes = List.fold_left max 1 cfg.fb_nodes in
          (* offered load sized for half the largest fleet, starting
             from one node: the scaler has to grow to keep up *)
          let target = max 1 (max_nodes / 2) in
          let arrivals = Trace.generate (trace_for kind target) ~classes:calibrated in
          let fleet_cfg =
            {
              Fleet.fc_nodes = 1;
              fc_policy = Router.Least_loaded;
              fc_autoscale =
                Some { Autoscaler.default with as_min_nodes = 1; as_max_nodes = max_nodes };
              fc_collect_responses = false;
              fc_tenancy = tenancy;
            }
          in
          let since = Exec.Result_cache.stats () in
          let fr = Fleet.run ~pool fleet_cfg ~make_node ~arrivals () in
          {
            sd_shape = kind_name kind;
            sd_report = Loadgen.report fr.Fleet.fr_slo ~makespan_s:fr.Fleet.fr_makespan_s ~since;
            sd_events = fr.Fleet.fr_events;
            sd_nodes_peak = fr.Fleet.fr_nodes_peak;
            sd_nodes_final = fr.Fleet.fr_nodes_final;
          })
        cfg.fb_shapes
  in
  {
    fbr_points = points;
    fbr_demos = demos;
    fbr_base_service = List.map (fun (c, s) -> (Loadgen.class_name c, s)) calibrated;
    fbr_requests = cfg.fb_requests;
    fbr_jobs = cfg.fb_jobs;
  }

let point_json p =
  Json.Obj
    [
      ("nodes", Json.Int p.pt_nodes);
      ("scaling_efficiency", Json.Float p.pt_efficiency);
      ("goodput_per_node_rps", Json.Float p.pt_goodput_per_node);
      ("key_hit_rate", Json.Float p.pt_key_hit_rate);
      ("router", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) p.pt_router));
      ("slo", Slo.report_json p.pt_report);
    ]

let demo_json d =
  Json.Obj
    [
      ("nodes_peak", Json.Int d.sd_nodes_peak);
      ("nodes_final", Json.Int d.sd_nodes_final);
      ("events", Json.List (List.map Autoscaler.event_json d.sd_events));
      ("slo", Slo.report_json d.sd_report);
    ]

let result_json r =
  (* points grouped policy -> shape -> curve *)
  let policies = List.sort_uniq compare (List.map (fun p -> p.pt_policy) r.fbr_points) in
  let sweeps =
    List.map
      (fun policy ->
        let shapes =
          List.sort_uniq compare
            (List.filter_map
               (fun p -> if p.pt_policy = policy then Some p.pt_shape else None)
               r.fbr_points)
        in
        ( policy,
          Json.Obj
            (List.map
               (fun shape ->
                 ( shape,
                   Json.List
                     (List.filter_map
                        (fun p ->
                          if p.pt_policy = policy && p.pt_shape = shape then Some (point_json p)
                          else None)
                        r.fbr_points) ))
               shapes) ))
      policies
  in
  Json.Obj
    [
      ("requests", Json.Int r.fbr_requests);
      ("jobs", Json.Int r.fbr_jobs);
      ( "base_service_s",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.fbr_base_service) );
      ("sweeps", Json.Obj sweeps);
      ("autoscaler", Json.Obj (List.map (fun d -> (d.sd_shape, demo_json d)) r.fbr_demos));
    ]

let fmt_opt_ms = function None -> "-" | Some v -> Printf.sprintf "%.2f" v

let print_result r =
  List.iter
    (fun (k, v) -> Printf.printf "base service %-28s %.4f s\n" k v)
    r.fbr_base_service;
  let header = ref "" in
  List.iter
    (fun p ->
      let h = Printf.sprintf "%s / %s" p.pt_policy p.pt_shape in
      if h <> !header then begin
        header := h;
        Printf.printf "\n-- %s --\n%6s %10s %10s %8s %8s %10s\n" h "nodes" "goodput/s" "p99_ms"
          "eff" "key_hit" "rejected"
      end;
      Printf.printf "%6d %10.2f %10s %8.3f %7.1f%% %10d\n" p.pt_nodes
        p.pt_report.Slo.rp_goodput_rps
        (fmt_opt_ms p.pt_report.Slo.rp_p99_ms)
        p.pt_efficiency (100.0 *. p.pt_key_hit_rate)
        (p.pt_report.Slo.rp_rejected_full + p.pt_report.Slo.rp_rejected_fleet))
    r.fbr_points;
  List.iter
    (fun d ->
      Printf.printf "\n-- autoscaler / %s -- peak %d nodes, final %d\n" d.sd_shape d.sd_nodes_peak
        d.sd_nodes_final;
      List.iter
        (fun (e : Autoscaler.event) ->
          Printf.printf "  t=%8.2fs %-10s %d -> %d (%s)\n" e.Autoscaler.ev_time_s
            (Autoscaler.action_name e.Autoscaler.ev_action)
            e.Autoscaler.ev_nodes_before e.Autoscaler.ev_nodes_after e.Autoscaler.ev_reason)
        d.sd_events)
    r.fbr_demos

let write_section ~file r =
  Exec.Bench_file.merge_section ~file "serve_fleet" (fun _ -> result_json r)
