(** The serving driver: one discrete-event loop over a shared virtual
    clock stepping N {!Cinnamon_serve.Engine}s, with a {!Router}
    placing admissions, one {!Cinnamon_tenant.Store} leasing key
    epochs, per-node {!Key_cache}s modeling HBM-resident key sets, and
    an optional {!Autoscaler}.  A single-node server is a fleet of one;
    single-tenant serving is a store that only ever sees the default
    tenant.

    All decisions (routing, batching, key penalties, scaling) are
    sequential on the virtual clock; only the real compile/simulate
    work fans across the shared pool — results are bit-identical for
    any [--jobs].  Every arrival, and every follow-up [on_terminal]
    injects, reaches exactly one terminal response: per-node outcomes
    land in that node's SLO accumulator, router-level refusals
    ([Admission.Tenant_unavailable], and [Admission.Fleet_full] when no
    node is active) in a router-level one, and [fr_slo] is their
    {!Cinnamon_serve.Slo.merge}. *)

(** How the fleet serves tenants: it owns one {!Cinnamon_tenant.Store}
    (tenants provision lazily on first arrival), stamps every admitted
    request with the epoch its key lease bound, weighs the per-node
    {!Key_cache}s by modeled key-set bytes, and charges each dispatch
    whose key set is cold on its node [tn_key_load_s] of HBM load.
    Every key set in one store has the same size, so one flat charge
    per cold load is exact.  [tn_transcipher_s] adds the calibrated
    ingress cost of the [K_transcipher] conversion circuit per request;
    [tn_upload] records the client-upload bytes that symmetric ingress
    saves versus direct CKKS upload. *)
type tenancy = {
  tn_store : Cinnamon_tenant.Store.config;
  tn_key_capacity_bytes : int;  (** per-node HBM key budget, >= 1 *)
  tn_key_load_s : float;  (** HBM load penalty per cold key-set load *)
  tn_transcipher_s : float;  (** ingress service per request; 0 = disabled *)
  tn_upload : Cinnamon_tenant.Transcipher.upload;
}

(** Keys that never rotate, no ingress charge, direct CKKS upload, key
    sets sized for [compile].  [key_sets] bounds each node's budget to
    that many key sets (default: unbounded); [key_load_s] (default 0)
    is the charge per cold load. *)
val default_tenancy :
  ?key_sets:int -> ?key_load_s:float -> Cinnamon_compiler.Compile_config.t -> tenancy

type config = {
  fc_nodes : int;  (** initial fleet size, >= 1 *)
  fc_policy : Router.policy;
  fc_autoscale : Autoscaler.config option;
  fc_tenancy : tenancy;
}

(** 4 nodes, least-loaded, no autoscaler,
    [default_tenancy] at the paper configuration. *)
val default_config : config

(** Per-run tenant accounting, accumulated sequentially on the virtual
    clock (never from pool workers). *)
type tenant_result = {
  tr_store : Cinnamon_tenant.Store.stats;
  tr_key_penalty_s : float;  (** summed modeled HBM key-load seconds *)
  tr_transcipher_s : float;  (** summed transciphering ingress seconds *)
  tr_base_service_s : float;  (** summed batch service seconds, no penalties *)
  tr_key_bytes_loaded : int;  (** HBM key traffic across all nodes ever *)
  tr_upload_sym_bytes : float;  (** client bytes actually uploaded *)
  tr_upload_ckks_bytes : float;  (** counterfactual direct-CKKS upload *)
  tr_cold_start_ms : (int * float) list;
      (** tenant id -> its first completion's latency, ms; sorted by id *)
  tr_events : Cinnamon_tenant.Store.event list;  (** oldest first *)
}

type result = {
  fr_slo : Cinnamon_serve.Slo.t;  (** merged: router + every node ever *)
  fr_makespan_s : float;
  fr_router : (string * int) list;  (** router decision counts *)
  fr_key_hits : int;
  fr_key_misses : int;
  fr_events : Autoscaler.event list;  (** oldest first *)
  fr_nodes_peak : int;
  fr_nodes_final : int;  (** active (non-draining) nodes at the end *)
  fr_tenants : tenant_result;
}

(** Dispatched-batch warm-key hit rate; 0 when nothing dispatched. *)
val key_hit_rate : result -> float

(** [run config ~make_node ~arrivals ()] plays the arrival list to
    completion.  [make_node id] builds node [id] — initial nodes get
    ids [0 .. fc_nodes-1]; the autoscaler calls it for each scale-up,
    and scale-down gracefully drains the newest active node.  Each
    node closes admission at its own [capacity.drain_after_s].
    [on_terminal] sees every terminal response and returns follow-up
    requests to route, e.g. closed-loop clients' next requests after a
    think time.  A request no active node has room for goes to the
    first active node, whose engine rejects it with its own typed
    reason ([Queue_full] or [Closed]).  Raises typed [Invalid_input]
    errors on bad counts/penalties and validates the autoscaler config
    up front. *)
val run :
  ?pool:Cinnamon_exec.Pool.t ->
  ?on_terminal:(Cinnamon_serve.Response.t -> Cinnamon_serve.Request.t list) ->
  config ->
  make_node:(int -> Cinnamon_serve.Node.t) ->
  arrivals:Cinnamon_serve.Request.t list ->
  unit ->
  result
