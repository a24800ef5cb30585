(* The single-node serving load test: a fleet of one node running the
   real compile+simulate executor, with one tenant and an unbounded key
   budget, so nothing but the node's own queueing shapes the numbers.

   Two client models:
   - Open loop: Poisson arrivals at a rate derived from the measured
     service time of the request mix — [overload] = offered load as a
     multiple of the node's aggregate service capacity, so
     overload > 1 provokes queueing, shedding and backpressure
     regardless of how fast the simulator happens to be for the
     chosen workloads.
   - Closed loop: [clients] concurrent clients, each issuing its next
     request one think time after its previous request reaches a
     terminal state (through the fleet's [on_terminal]). *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Rng = Cinnamon_util.Rng
module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Loadgen = Cinnamon_serve.Loadgen
module Node = Cinnamon_serve.Node
module Request = Cinnamon_serve.Request
module Response = Cinnamon_serve.Response
module Slo = Cinnamon_serve.Slo

type mode =
  | Open_loop of { overload : float }
  | Closed_loop of { clients : int; think_factor : float }

type config = {
  lg_mode : mode;
  lg_requests : int;
  lg_mix : Loadgen.class_spec list;
  lg_seed : int;
  lg_deadline_factor : float; (* deadline = arrival + factor * class service *)
  lg_capacity : Node.capacity;
  lg_compile : CC.t;
  lg_jobs : int; (* real pool workers; 0 = recommended *)
}

let quick =
  {
    lg_mode = Open_loop { overload = 4.0 };
    lg_requests = 80;
    lg_mix = [ { Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 1.0 } ];
    lg_seed = 42;
    lg_deadline_factor = 3.0;
    lg_capacity =
      { Node.workers = 2; queue_capacity = 12; max_batch = 4; max_attempts = 3; drain_after_s = None };
    lg_compile = CC.paper ();
    lg_jobs = 0;
  }

let default =
  {
    quick with
    lg_requests = 300;
    lg_mix =
      [
        { Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.7 };
        { Loadgen.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.3 };
      ];
  }

type result = {
  lr_mode : string; (* "open_loop" | "closed_loop" *)
  lr_rate_rps : float; (* offered rate (open loop) or clients/think-derived *)
  lr_base_service : (string * float) list; (* "bench@system" -> calibrated s *)
  lr_report : Slo.report;
}

let mode_name = function Open_loop _ -> "open_loop" | Closed_loop _ -> "closed_loop"

let run cfg =
  let invalid msg = Error.fail Error.Invalid_input ("Loadtest.run: " ^ msg) in
  if cfg.lg_requests < 1 then invalid "lg_requests must be >= 1";
  if cfg.lg_mix = [] then invalid "lg_mix must be non-empty";
  if cfg.lg_deadline_factor <= 0.0 then invalid "lg_deadline_factor must be > 0";
  List.iter
    (fun c ->
      if c.Loadgen.cls_weight <= 0.0 || Float.is_nan c.Loadgen.cls_weight then
        invalid "class weights must be > 0")
    cfg.lg_mix;
  (match cfg.lg_mode with
  | Open_loop { overload } -> if overload <= 0.0 then invalid "overload must be > 0"
  | Closed_loop { clients; think_factor } ->
    if clients < 1 then invalid "clients must be >= 1";
    if think_factor < 0.0 then invalid "think_factor must be >= 0");
  let pool = Exec.Pool.create ~jobs:cfg.lg_jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  (* the report counts the calibration's compiles too *)
  let stats0 = Exec.Result_cache.stats () in
  let calibrated = Loadgen.calibrate ~pool ~compile:cfg.lg_compile cfg.lg_mix in
  let total_weight =
    List.fold_left (fun acc (c, _) -> acc +. c.Loadgen.cls_weight) 0.0 calibrated
  in
  let mean_service = Loadgen.mean_service calibrated in
  let rng = Rng.create ~seed:cfg.lg_seed in
  let pick_class () =
    let u = Rng.float rng *. total_weight in
    let rec go acc = function
      | [] -> List.hd calibrated (* unreachable: weights sum to total *)
      | (c, s) :: rest ->
        if acc +. c.Loadgen.cls_weight >= u then (c, s) else go (acc +. c.Loadgen.cls_weight) rest
    in
    go 0.0 calibrated
  in
  let pick_priority () =
    let u = Rng.float rng in
    if u < 0.1 then Request.High else if u < 0.9 then Request.Normal else Request.Low
  in
  let mk_request ~id ~arrival_s =
    let cls, service_s = pick_class () in
    Request.make ~config:cfg.lg_compile
      ~priority:(pick_priority ())
      ~deadline_s:(arrival_s +. (cfg.lg_deadline_factor *. service_s))
      ~id ~bench:cls.Loadgen.cls_bench ~system:cls.Loadgen.cls_system ~arrival_s ()
  in
  let offered_rate, arrivals, on_terminal =
    match cfg.lg_mode with
    | Open_loop { overload } ->
      (* rate such that offered work = overload x node capacity *)
      let rate = overload *. Float.of_int cfg.lg_capacity.Node.workers /. mean_service in
      let t = ref 0.0 in
      let arrivals =
        List.init cfg.lg_requests (fun id ->
            let r = mk_request ~id ~arrival_s:!t in
            t := !t +. (-.log (1.0 -. Rng.float rng) /. rate);
            r)
      in
      (rate, arrivals, None)
    | Closed_loop { clients; think_factor } ->
      let think = think_factor *. mean_service in
      let issued = ref 0 in
      let next_id () =
        let id = !issued in
        incr issued;
        id
      in
      let initial =
        List.init (min clients cfg.lg_requests) (fun _ ->
            mk_request ~id:(next_id ()) ~arrival_s:0.0)
      in
      let follow_up (resp : Response.t) =
        if !issued >= cfg.lg_requests then []
        else [ mk_request ~id:(next_id ()) ~arrival_s:(Response.terminal_s resp +. think) ]
      in
      (* nominal per-client rate, for the report only *)
      let rate = Float.of_int clients /. (mean_service +. think) in
      (rate, initial, Some follow_up)
  in
  let fleet_cfg =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 1;
      fc_tenancy = Fleet.default_tenancy cfg.lg_compile;
    }
  in
  let make_node _ =
    Node.make ~name:"loadgen" ~capacity:cfg.lg_capacity ~execute:Loadgen.workload_executor ()
  in
  let fr = Fleet.run ~pool ?on_terminal fleet_cfg ~make_node ~arrivals () in
  {
    lr_mode = mode_name cfg.lg_mode;
    lr_rate_rps = offered_rate;
    lr_base_service = List.map (fun (c, s) -> (Loadgen.class_name c, s)) calibrated;
    lr_report = Loadgen.report fr.Fleet.fr_slo ~makespan_s:fr.Fleet.fr_makespan_s ~since:stats0;
  }

let result_json r =
  Json.Obj
    [
      ("mode", Json.Str r.lr_mode);
      ("offered_rate_rps", Json.Float r.lr_rate_rps);
      ("base_service_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.lr_base_service));
      ("slo", Slo.report_json r.lr_report);
    ]

let print_result r =
  Printf.printf "mode: %s, offered rate %.2f req/s\n" r.lr_mode r.lr_rate_rps;
  List.iter
    (fun (k, v) -> Printf.printf "base service %-28s %.4f s\n" k v)
    r.lr_base_service;
  Slo.print r.lr_report

(* The open- and closed-loop results coexist under their mode keys. *)
let write_section ~file r =
  Exec.Bench_file.merge_section ~file "serve_loadtest" (fun old ->
      let modes = match old with Some (Json.Obj kvs) -> kvs | _ -> [] in
      Json.Obj ((r.lr_mode, result_json r) :: List.remove_assoc r.lr_mode modes))
