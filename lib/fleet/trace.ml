(* Arrival-trace generation for fleet sweeps.

   Two shapes on the virtual clock:
   - Poisson: stationary arrivals at a fixed rate — the classic
     open-loop overload probe.
   - Diurnal: a non-homogeneous Poisson process whose rate swings
     smoothly between a night-time base and a mid-period peak,
     rate(t) = base + (peak - base) * (1 - cos 2πt/T) / 2, sampled by
     thinning a homogeneous peak-rate process.  This is the trace that
     gives an autoscaler something to do: the fleet should breathe
     with the wave.

   Class mix, priorities and deadlines follow the Loadgen conventions
   (weight-proportional mix; 10/80/10 High/Normal/Low; deadline =
   arrival + factor x the class's calibrated base service time), so
   single-node and fleet runs stress the same workload population. *)

module Rng = Cinnamon_util.Rng
module Error = Cinnamon_util.Error
module Request = Cinnamon_serve.Request
module Loadgen = Cinnamon_serve.Loadgen

type shape =
  | Poisson of { rate_rps : float }
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }

let shape_name = function Poisson _ -> "poisson" | Diurnal _ -> "diurnal"

type config = {
  tr_shape : shape;
  tr_requests : int;
  tr_seed : int;
  tr_deadline_factor : float; (* deadline = arrival + factor * class service *)
  tr_compile : Cinnamon_compiler.Compile_config.t;
  tr_tenants : int; (* <= 1: single default tenant (legacy traces) *)
  tr_tenant_skew : float; (* zipf exponent of the tenant popularity curve *)
}

let validate cfg =
  if cfg.tr_requests < 1 then Error.fail Error.Invalid_input "Trace: requests must be >= 1";
  if not (cfg.tr_deadline_factor > 0.0) then
    Error.fail Error.Invalid_input "Trace: deadline_factor must be > 0";
  if cfg.tr_tenants < 0 then Error.fail Error.Invalid_input "Trace: tenants must be >= 0";
  if not (cfg.tr_tenant_skew >= 0.0) then
    Error.fail Error.Invalid_input "Trace: tenant skew must be >= 0";
  match cfg.tr_shape with
  | Poisson { rate_rps } ->
    if not (rate_rps > 0.0) then Error.fail Error.Invalid_input "Trace: rate must be > 0"
  | Diurnal { base_rps; peak_rps; period_s } ->
    if not (base_rps > 0.0) then Error.fail Error.Invalid_input "Trace: base rate must be > 0";
    if not (peak_rps >= base_rps) then
      Error.fail Error.Invalid_input "Trace: peak rate must be >= base";
    if not (period_s > 0.0) then Error.fail Error.Invalid_input "Trace: period must be > 0"

let generate cfg ~classes =
  validate cfg;
  if classes = [] then Error.fail Error.Invalid_input "Trace: class mix must be non-empty";
  let rng = Rng.create ~seed:cfg.tr_seed in
  let pick_class = Loadgen.class_picker rng classes in
  let exp_gap rate = -.log (1.0 -. Rng.float rng) /. rate in
  let next_arrival =
    match cfg.tr_shape with
    | Poisson { rate_rps } -> fun t -> t +. exp_gap rate_rps
    | Diurnal { base_rps; peak_rps; period_s } ->
      let rate_at t =
        base_rps +. ((peak_rps -. base_rps) *. 0.5 *. (1.0 -. cos (2.0 *. Float.pi *. t /. period_s)))
      in
      (* thinning: candidates at the peak rate, accepted w.p. rate/peak *)
      let rec thin t =
        let t' = t +. exp_gap peak_rps in
        if Rng.float rng *. peak_rps <= rate_at t' then t' else thin t'
      in
      thin
  in
  (* Tenant popularity: zipf-like weights 1/(i+1)^skew, CDF-sampled.
     With <= 1 tenant no randomness is drawn at all, so legacy
     single-tenant traces are byte-identical to pre-tenancy ones. *)
  let pick_tenant =
    if cfg.tr_tenants <= 1 then fun () -> Cinnamon_tenant.Tenant_id.default
    else begin
      let w =
        Array.init cfg.tr_tenants (fun i ->
            1.0 /. Float.pow (Float.of_int (i + 1)) cfg.tr_tenant_skew)
      in
      let total = Array.fold_left ( +. ) 0.0 w in
      fun () ->
        let u = Rng.float rng *. total in
        let rec go acc i =
          if i >= cfg.tr_tenants - 1 then i
          else if acc +. w.(i) >= u then i
          else go (acc +. w.(i)) (i + 1)
        in
        Cinnamon_tenant.Tenant_id.make (go 0.0 0)
    end
  in
  let t = ref 0.0 in
  List.init cfg.tr_requests (fun id ->
      let arrival_s = !t in
      let cls, service_s = pick_class () in
      t := next_arrival !t;
      (* draw order (class, gap, priority, tenant) is part of the trace
         contract: the tenant draw comes last so single-tenant traces
         reproduce the pre-tenancy streams exactly *)
      let priority = Loadgen.pick_priority rng in
      let tenant = pick_tenant () in
      Request.make ~config:cfg.tr_compile ~priority
        ~deadline_s:(arrival_s +. (cfg.tr_deadline_factor *. service_s))
        ~tenant ~id ~bench:cls.Loadgen.cls_bench ~system:cls.Loadgen.cls_system ~arrival_s ())
