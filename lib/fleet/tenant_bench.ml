(* The multi-tenant serving benchmark: one fleet, >= 64 tenants with a
   zipf popularity curve, per-tenant key sets rotating mid-trace, and a
   transciphering ingress priced from the real compiled K_transcipher
   circuit.

   Every routing policy replays the SAME trace (arrivals are generated
   once), so the per-policy numbers isolate what tenant-key locality
   buys: the Locality policy routes each request to a node where its
   (tenant, epoch, program) key entry is already HBM-resident, while
   Round_robin scatters tenants and re-streams their multi-GB key sets.

   Modeled costs are tied to calibrated service times, not wall-clock
   guesses: a cold key-set load costs [tb_key_load_factor] x the mean
   calibrated service time, and the ingress charge per request is the
   measured simulated seconds of the K_transcipher conversion circuit
   itself.  The tenant rotation
   period is the estimated trace duration / [tb_rotation_periods], so
   rotations start, drain and complete while requests are in flight.

   Results merge into BENCH_cinnamon.json under ["tenant_serving"],
   preserving every other key in the file. *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Node = Cinnamon_serve.Node
module Slo = Cinnamon_serve.Slo
module Loadgen = Cinnamon_serve.Loadgen
module Store = Cinnamon_tenant.Store
module Key_set = Cinnamon_tenant.Key_set
module Tenant_id = Cinnamon_tenant.Tenant_id
module Epoch = Cinnamon_tenant.Epoch
module Transcipher = Cinnamon_tenant.Transcipher

type config = {
  tb_nodes : int;
  tb_tenants : int; (* >= 2; population behind the zipf curve *)
  tb_requests : int;
  tb_mix : Loadgen.class_spec list;
  tb_seed : int;
  tb_overload : float; (* offered load as a multiple of fleet capacity *)
  tb_deadline_factor : float;
  tb_tenant_skew : float; (* zipf exponent of tenant popularity *)
  tb_capacity : Node.capacity;
  tb_rotations : int list; (* rotation amounts in every tenant's key set *)
  tb_conjugation : bool;
  tb_key_capacity_sets : float; (* per-node HBM key budget, in key-set multiples *)
  tb_key_load_factor : float; (* full-set cold load = factor x mean service *)
  tb_rotation_periods : float; (* rotations per estimated trace duration *)
  tb_compile : CC.t;
  tb_jobs : int; (* real pool workers; 0 = recommended *)
}

(* Three-class mix on one system: with tenants and epochs leading the
   batch compatibility key, tenant diversity (not class diversity) is
   what stresses the key caches. *)
let standard_mix =
  [
    { Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.5 };
    { Loadgen.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.3 };
    { Loadgen.cls_bench = "helr"; cls_system = "cinnamon-4"; cls_weight = 0.2 };
  ]

let quick =
  {
    tb_nodes = 4;
    tb_tenants = 64;
    tb_requests = 600;
    tb_mix = standard_mix;
    tb_seed = 42;
    tb_overload = 1.2;
    tb_deadline_factor = 10.0;
    tb_tenant_skew = 1.0;
    tb_capacity =
      { Node.workers = 2; queue_capacity = 32; max_batch = 8; max_attempts = 3; drain_after_s = None };
    (* the amounts K_transcipher's affine diffusion rotates by *)
    tb_rotations = [ 1; 4 ];
    tb_conjugation = false;
    tb_key_capacity_sets = 24.0;
    tb_key_load_factor = 0.25;
    tb_rotation_periods = 3.0;
    tb_compile = CC.paper ();
    tb_jobs = 0;
  }

let full = { quick with tb_tenants = 256; tb_requests = 20_000 }

type point = {
  tp_policy : string;
  tp_report : Slo.report;
  tp_key_hit_rate : float; (* dispatched-batch tenant-key hit rate *)
  tp_key_penalty_share : float; (* key-load s / total charged service s *)
  tp_transcipher_pct : float; (* ingress s as % of base service s *)
  tp_cold_p99_ms : float; (* p99 over per-tenant first-completion latency *)
  tp_rotations_started : int;
  tp_rotations_completed : int;
  tp_key_gb_loaded : float; (* HBM key traffic across all nodes *)
  tp_router : (string * int) list;
}

type result = {
  tbr_points : point list; (* one per policy, run order *)
  tbr_nodes : int;
  tbr_tenants : int;
  tbr_requests : int;
  tbr_jobs : int;
  tbr_rotation_period_s : float;
  tbr_transcipher_s : float; (* calibrated ingress seconds per request *)
  tbr_key_set_gb : float; (* one tenant-epoch key set *)
  tbr_upload : Transcipher.upload;
  tbr_locality_gain : float; (* locality hit rate - round_robin hit rate *)
}

let run cfg =
  if cfg.tb_nodes < 1 then Error.fail Error.Invalid_input "Tenant_bench: nodes must be >= 1";
  if cfg.tb_tenants < 2 then Error.fail Error.Invalid_input "Tenant_bench: tenants must be >= 2";
  if cfg.tb_requests < 1 then Error.fail Error.Invalid_input "Tenant_bench: requests must be >= 1";
  (* NaN fails every comparison; the mix is checked by Loadgen.calibrate *)
  if not (cfg.tb_overload > 0.0) then
    Error.fail Error.Invalid_input "Tenant_bench: overload must be > 0";
  if not (cfg.tb_key_capacity_sets > 0.0) then
    Error.fail Error.Invalid_input "Tenant_bench: key capacity must be > 0 sets";
  if not (cfg.tb_key_load_factor >= 0.0) then
    Error.fail Error.Invalid_input "Tenant_bench: key_load_factor must be >= 0";
  if not (cfg.tb_rotation_periods > 0.0) then
    Error.fail Error.Invalid_input "Tenant_bench: rotation_periods must be > 0";
  let pool = Exec.Pool.create ~jobs:cfg.tb_jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  let calibrated = Loadgen.calibrate ~pool ~compile:cfg.tb_compile cfg.tb_mix in
  (* the ingress price IS the conversion circuit: calibrate the real
     compiled K_transcipher workload like any serving class *)
  let transcipher_s =
    let sys = (List.hd cfg.tb_mix).Loadgen.cls_system (* calibrate rejected [] *) in
    match
      Loadgen.calibrate ~pool ~compile:cfg.tb_compile
        [ { Loadgen.cls_bench = "transcipher"; cls_system = sys; cls_weight = 1.0 } ]
    with
    | [ (_, s) ] -> s
    | _ -> assert false
  in
  let mean_service = Loadgen.mean_service calibrated in
  let rate =
    cfg.tb_overload *. Float.of_int (cfg.tb_nodes * cfg.tb_capacity.Node.workers) /. mean_service
  in
  let duration_est = Float.of_int cfg.tb_requests /. rate in
  let rotation_period_s = duration_est /. cfg.tb_rotation_periods in
  let profile = Key_set.profile_of_config cfg.tb_compile in
  let set_bytes =
    Key_set.bytes
      (Key_set.make profile ~tenant:Tenant_id.default ~epoch:Epoch.zero
         ~rotations:cfg.tb_rotations ~conjugation:cfg.tb_conjugation)
  in
  let set_gb = Float.of_int set_bytes /. 1e9 in
  let tenancy =
    {
      Fleet.tn_store =
        {
          Store.sc_profile = profile;
          sc_rotations = cfg.tb_rotations;
          sc_conjugation = cfg.tb_conjugation;
          sc_rotation_period_s = rotation_period_s;
        };
      tn_key_capacity_bytes =
        max 1 (int_of_float (cfg.tb_key_capacity_sets *. Float.of_int set_bytes));
      (* one cold load of a whole set: the per-GB rate that prices a
         set at [tb_key_load_factor] x mean service, times its bytes *)
      tn_key_load_s =
        cfg.tb_key_load_factor *. mean_service /. set_gb *. Float.of_int set_bytes /. 1e9;
      tn_transcipher_s = transcipher_s;
      tn_upload = Transcipher.upload_of_config cfg.tb_compile;
    }
  in
  let arrivals =
    Trace.generate
      {
        Trace.tr_shape = Trace.Poisson { rate_rps = rate };
        tr_requests = cfg.tb_requests;
        tr_seed = cfg.tb_seed;
        tr_deadline_factor = cfg.tb_deadline_factor;
        tr_compile = cfg.tb_compile;
        tr_tenants = cfg.tb_tenants;
        tr_tenant_skew = cfg.tb_tenant_skew;
      }
      ~classes:calibrated
  in
  let make_node id =
    Node.make ~name:(Printf.sprintf "node%d" id) ~capacity:cfg.tb_capacity
      ~execute:Loadgen.workload_executor ()
  in
  let run_policy policy =
    let fleet_cfg =
      {
        Fleet.fc_nodes = cfg.tb_nodes;
        fc_policy = policy;
        fc_autoscale = None;
        fc_tenancy = tenancy;
      }
    in
    let since = Exec.Result_cache.stats () in
    let fr = Fleet.run ~pool fleet_cfg ~make_node ~arrivals () in
    let tr = fr.Fleet.fr_tenants in
    let total_charged =
      tr.Fleet.tr_base_service_s +. tr.Fleet.tr_key_penalty_s +. tr.Fleet.tr_transcipher_s
    in
    {
      tp_policy = Router.policy_name policy;
      tp_report = Loadgen.report fr.Fleet.fr_slo ~makespan_s:fr.Fleet.fr_makespan_s ~since;
      tp_key_hit_rate = Fleet.key_hit_rate fr;
      tp_key_penalty_share =
        (if total_charged > 0.0 then tr.Fleet.tr_key_penalty_s /. total_charged else 0.0);
      tp_transcipher_pct =
        (if tr.Fleet.tr_base_service_s > 0.0 then
           100.0 *. tr.Fleet.tr_transcipher_s /. tr.Fleet.tr_base_service_s
         else 0.0);
      tp_cold_p99_ms =
        (match tr.Fleet.tr_cold_start_ms with
        | [] -> 0.0
        | cold -> Cinnamon_util.Stats.percentile ~p:99.0 (List.map snd cold));
      tp_rotations_started = tr.Fleet.tr_store.Store.st_rotations_started;
      tp_rotations_completed = tr.Fleet.tr_store.Store.st_rotations_completed;
      tp_key_gb_loaded = Float.of_int tr.Fleet.tr_key_bytes_loaded /. 1e9;
      tp_router = fr.Fleet.fr_router;
    }
  in
  let points = List.map run_policy [ Router.Round_robin; Router.Least_loaded; Router.Locality ] in
  let hit name =
    match List.find_opt (fun p -> p.tp_policy = name) points with
    | Some p -> p.tp_key_hit_rate
    | None -> 0.0
  in
  {
    tbr_points = points;
    tbr_nodes = cfg.tb_nodes;
    tbr_tenants = cfg.tb_tenants;
    tbr_requests = cfg.tb_requests;
    tbr_jobs = cfg.tb_jobs;
    tbr_rotation_period_s = rotation_period_s;
    tbr_transcipher_s = transcipher_s;
    tbr_key_set_gb = set_gb;
    tbr_upload = tenancy.Fleet.tn_upload;
    tbr_locality_gain = hit "locality" -. hit "round_robin";
  }

let point_json p =
  Json.Obj
    [
      ("key_hit_rate", Json.Float p.tp_key_hit_rate);
      ("key_load_penalty_share", Json.Float p.tp_key_penalty_share);
      ("cold_start_p99_ms", Json.Float p.tp_cold_p99_ms);
      ("transcipher_overhead_pct", Json.Float p.tp_transcipher_pct);
      ("rotations_started", Json.Int p.tp_rotations_started);
      ("rotations_completed", Json.Int p.tp_rotations_completed);
      ("key_gb_loaded", Json.Float p.tp_key_gb_loaded);
      ("router", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) p.tp_router));
      ("slo", Slo.report_json p.tp_report);
    ]

let result_json r =
  Json.Obj
    [
      ("tenants", Json.Int r.tbr_tenants);
      ("nodes", Json.Int r.tbr_nodes);
      ("requests", Json.Int r.tbr_requests);
      ("jobs", Json.Int r.tbr_jobs);
      ("key_set_gb", Json.Float r.tbr_key_set_gb);
      ("rotation_period_s", Json.Float r.tbr_rotation_period_s);
      ("transcipher_service_s", Json.Float r.tbr_transcipher_s);
      ( "upload",
        Json.Obj
          [
            ("sym_bytes_per_req", Json.Int r.tbr_upload.Transcipher.up_sym_bytes);
            ("ckks_bytes_per_req", Json.Int r.tbr_upload.Transcipher.up_ckks_bytes);
            ("savings_x", Json.Float (Transcipher.savings_x r.tbr_upload));
          ] );
      ("policies", Json.Obj (List.map (fun p -> (p.tp_policy, point_json p)) r.tbr_points));
      ("locality_hit_gain_vs_rr", Json.Float r.tbr_locality_gain);
    ]

let print_result r =
  Printf.printf
    "tenants %d over %d nodes, %d requests; key set %.2f GB, rotation period %.1fs\n"
    r.tbr_tenants r.tbr_nodes r.tbr_requests r.tbr_key_set_gb r.tbr_rotation_period_s;
  Printf.printf "transcipher ingress %.4f s/req; upload %d B sym vs %d B ckks (%.0fx)\n"
    r.tbr_transcipher_s r.tbr_upload.Transcipher.up_sym_bytes
    r.tbr_upload.Transcipher.up_ckks_bytes
    (Transcipher.savings_x r.tbr_upload);
  Printf.printf "%-12s %9s %9s %9s %9s %9s %7s %10s\n" "policy" "goodput/s" "p99_ms" "key_hit"
    "pen_share" "cold_p99" "rots" "ingress%";
  List.iter
    (fun p ->
      Printf.printf "%-12s %9.2f %9s %8.1f%% %8.1f%% %9.1f %3d/%-3d %9.2f\n" p.tp_policy
        p.tp_report.Slo.rp_goodput_rps
        (Fleet_bench.fmt_opt_ms p.tp_report.Slo.rp_p99_ms)
        (100.0 *. p.tp_key_hit_rate)
        (100.0 *. p.tp_key_penalty_share)
        p.tp_cold_p99_ms p.tp_rotations_started p.tp_rotations_completed p.tp_transcipher_pct)
    r.tbr_points;
  Printf.printf "locality hit-rate gain over round-robin: %+.1f%%\n" (100.0 *. r.tbr_locality_gain)

let write_section ~file r =
  Exec.Bench_file.merge_section ~file "tenant_serving" (fun _ -> result_json r)
