(** The serve-fleet benchmark: per-policy scaling-efficiency curves
    over fleet sizes under Poisson and diurnal traces, plus an
    autoscaler demo, merged into [BENCH_cinnamon.json] under
    ["serve_fleet"].

    Offered load scales with fleet capacity ([fb_overload] x n x
    workers / calibrated mean service), so every sweep point sees the
    same per-node pressure and efficiency(n) = (goodput(n)/n) /
    (goodput(n0)/n0) isolates router + warm-key-cache effects.  All
    policies replay the same trace at each (shape, size). *)

type config = {
  fb_nodes : int list;  (** fleet sizes, ascending *)
  fb_policies : Router.policy list;
  fb_shapes : [ `Poisson | `Diurnal ] list;
  fb_requests : int;  (** per sweep point *)
  fb_mix : Cinnamon_serve.Loadgen.class_spec list;
  fb_seed : int;
  fb_overload : float;  (** offered load / fleet capacity *)
  fb_deadline_factor : float;
  fb_capacity : Cinnamon_serve.Node.capacity;
  fb_key_slots : int;  (** per-node key budget, in key sets (one per program) *)
  fb_key_load_factor : float;  (** key-load penalty = factor x mean service *)
  fb_autoscale : bool;
  fb_compile : Cinnamon_compiler.Compile_config.t;
  fb_jobs : int;  (** real pool workers; 0 = recommended *)
}

(** Skewed five-benchmark mix — distinct compatibility keys give
    locality routing something to win on. *)
val standard_mix : Cinnamon_serve.Loadgen.class_spec list

(** 600 requests over fleets of 1/2/4 nodes, all policies, both trace
    shapes, autoscaler demo on — seconds of wall clock. *)
val quick : config

(** The headline sweep: 1 -> 64 nodes, million-request traces. *)
val full : config

type point = {
  pt_policy : string;
  pt_shape : string;
  pt_nodes : int;
  pt_report : Cinnamon_serve.Slo.report;
  pt_goodput_per_node : float;
  pt_efficiency : float;  (** vs smallest swept size, same policy+shape *)
  pt_key_hit_rate : float;
  pt_router : (string * int) list;
}

type scale_demo = {
  sd_shape : string;
  sd_report : Cinnamon_serve.Slo.report;
  sd_events : Autoscaler.event list;
  sd_nodes_peak : int;
  sd_nodes_final : int;
}

type result = {
  fbr_points : point list;  (** policy-major, then shape, then nodes *)
  fbr_demos : scale_demo list;
  fbr_base_service : (string * float) list;
  fbr_requests : int;
  fbr_jobs : int;
}

(** Calibrate once, then run every sweep point (and the autoscaler
    demos) on one shared pool.  Raises typed [Invalid_input] errors on
    empty/invalid sweep parameters. *)
val run : config -> result

val result_json : result -> Cinnamon_util.Json.t

(** Print the scaling tables and autoscaler events.  When both
    locality and round-robin were swept, also print their mean key hit
    rates, with a WARNING if locality does not beat round-robin. *)
val print_result : result -> unit

(** A latency in ms to two decimals, ["-"] when absent. *)
val fmt_opt_ms : float option -> string

(** Merge into [file] under ["serve_fleet"], keeping every other key
    (see {!Cinnamon_exec.Bench_file}). *)
val write_section : file:string -> result -> unit
