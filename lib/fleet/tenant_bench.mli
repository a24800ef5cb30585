(** The multi-tenant serving benchmark: one fleet, a zipf tenant
    population with per-tenant key sets rotating mid-trace, and a
    transciphering ingress priced from the real compiled
    [K_transcipher] circuit.  Every routing policy replays the same
    trace, so the per-policy numbers isolate what tenant-key locality
    buys.  The three replays are independent and run concurrently, one
    pool job each, on the pool of [tb_jobs] workers that calibration
    uses; the result does not depend on [tb_jobs].  Results merge into
    [BENCH_cinnamon.json] under ["tenant_serving"]. *)

module CC = Cinnamon_compiler.Compile_config

type config = {
  tb_nodes : int;
  tb_tenants : int;  (** >= 2; population behind the zipf curve *)
  tb_requests : int;
  tb_mix : Cinnamon_serve.Loadgen.class_spec list;
  tb_seed : int;
  tb_overload : float;  (** offered load as a multiple of fleet capacity *)
  tb_deadline_factor : float;
  tb_tenant_skew : float;  (** zipf exponent of tenant popularity *)
  tb_capacity : Cinnamon_serve.Node.capacity;
  tb_rotations : int list;  (** rotation amounts in every tenant's key set *)
  tb_conjugation : bool;
  tb_key_capacity_sets : float;
      (** per-node HBM key budget, in key-set multiples *)
  tb_key_load_factor : float;
      (** fully cold key-set load = factor x mean calibrated service *)
  tb_rotation_periods : float;
      (** rotations per estimated trace duration (rotate mid-trace) *)
  tb_compile : CC.t;
  tb_jobs : int;  (** real pool workers; 0 = recommended *)
}

(** bootstrap/resnet/helr on cinnamon-4. *)
val standard_mix : Cinnamon_serve.Loadgen.class_spec list

(** 64 tenants over 4 nodes, 600 requests — the CI preset. *)
val quick : config

(** 256 tenants, 20k requests. *)
val full : config

type point = {
  tp_policy : string;
  tp_report : Cinnamon_serve.Slo.report;
  tp_key_hit_rate : float;  (** dispatched-batch tenant-key hit rate *)
  tp_key_penalty_share : float;  (** key-load s / total charged service s *)
  tp_transcipher_pct : float;  (** ingress s as %% of base service s *)
  tp_cold_p99_ms : float;
      (** p99 over per-tenant first-completion latencies *)
  tp_rotations_started : int;
  tp_rotations_completed : int;
  tp_key_gb_loaded : float;  (** HBM key traffic across all nodes *)
  tp_router : (string * int) list;
}

type result = {
  tbr_points : point list;  (** round_robin, least_loaded, locality *)
  tbr_nodes : int;
  tbr_tenants : int;
  tbr_requests : int;
  tbr_jobs : int;
  tbr_rotation_period_s : float;
  tbr_transcipher_s : float;  (** calibrated ingress seconds per request *)
  tbr_key_set_gb : float;  (** one tenant-epoch key set *)
  tbr_upload : Cinnamon_tenant.Transcipher.upload;
  tbr_locality_gain : float;
      (** locality hit rate minus round-robin hit rate *)
}

(** Raises typed [Invalid_input] errors on bad counts or factors. *)
val run : config -> result

val result_json : result -> Cinnamon_util.Json.t
val print_result : result -> unit

(** Merge into [file] under ["tenant_serving"], keeping every other key
    (see {!Cinnamon_exec.Bench_file}). *)
val write_section : file:string -> result -> unit
