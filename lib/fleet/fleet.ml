(* The serving driver: one discrete-event loop over the shared
   virtual clock stepping N per-node Engines, with a Router deciding
   admission placement, a tenant key store leasing key epochs,
   per-node warm-key caches modeling HBM-resident key sets, and an
   optional Autoscaler growing/shrinking the fleet from live SLO
   signals.  The single-node server is a fleet of one node, and
   single-tenant serving is a store that only ever sees the default
   tenant: there is one loop and one tenancy model.

   Time model.  Admission, batching and completion bookkeeping run in
   VIRTUAL seconds — a batch dispatched at virtual time t whose
   executor reports s seconds of service occupies one of its node's
   simulated executors until t + s (plus any key-load and ingress
   charge).  The executor itself is REAL work: the production one
   (Loadgen.workload_executor) looks the batch's benchmark plan up by
   program key and reads each segment's simulation from the
   Result_cache, compiling and simulating only on a miss.

   Determinism.  Every decision that shapes the run — routing, batch
   formation, key-cache penalties, autoscaling — happens sequentially
   on the virtual clock, in node-id order.  The only concurrency is
   the real compile/simulate work: at each virtual instant, the
   batches formed on ALL nodes are fanned across one shared
   Exec.Pool in a single order-preserving map (Engine.execute touches
   no engine state), then committed back in formation order.  So
   results are bit-identical for any --jobs, the same property
   Runner.run_sweep has.

   Accounting.  Each engine's Slo accumulator absorbs everything that
   happens to requests it owns, including its own typed rejections: a
   request no active node has room for goes to the first active node,
   whose engine refuses it as Queue_full or Closed.  Refusals with no
   node to own them — the tenant store declining a lease, or a fleet
   with no active node (Admission.Fleet_full) — land in a router-level
   accumulator.  [Slo.merge] over router + every node ever spawned
   restores the exactly-one-terminal-response identity fleet-wide.

   Scaling.  Scale-up spawns [make_node id] and routes to it from the
   next arrival on (its key cache starts cold).  Scale-down drains the
   newest active node: admission closes immediately (the router stops
   seeing it), admitted work runs to completion, and the empty shell
   is dropped from stepping once drained. *)

module Tel = Cinnamon_telemetry.Telemetry
module Exec = Cinnamon_exec
module Error = Cinnamon_util.Error
module Engine = Cinnamon_serve.Engine
module Request = Cinnamon_serve.Request
module Response = Cinnamon_serve.Response
module Admission = Cinnamon_serve.Admission
module Batcher = Cinnamon_serve.Batcher
module Slo = Cinnamon_serve.Slo
module Store = Cinnamon_tenant.Store
module Key_set = Cinnamon_tenant.Key_set
module Tenant_id = Cinnamon_tenant.Tenant_id
module Epoch = Cinnamon_tenant.Epoch
module Transcipher = Cinnamon_tenant.Transcipher

(* The fleet owns one tenant key store (lazily provisioning tenants on
   their first arrival), stamps each admitted request with the epoch
   its lease bound, weighs the per-node key caches by modeled key-set
   bytes, and charges a cold dispatch [tn_key_load_s] of HBM load —
   one flat charge, since every key set of one store has the same
   size.  The transciphering ingress adds [tn_transcipher_s] per
   request of a dispatched batch — the calibrated cost of the
   K_transcipher conversion circuit that turns the client's symmetric
   upload into a CKKS ciphertext — and the upload model records the
   bytes that ingress saves. *)
type tenancy = {
  tn_store : Store.config;
  tn_key_capacity_bytes : int; (* per-node HBM key budget *)
  tn_key_load_s : float; (* HBM load penalty per cold key-set load *)
  tn_transcipher_s : float; (* ingress service per request; 0 = disabled *)
  tn_upload : Transcipher.upload; (* client-upload byte model *)
}

let default_tenancy ?key_sets ?(key_load_s = 0.0) compile =
  let store = Store.default_config (Key_set.profile_of_config compile) in
  let set_bytes =
    Key_set.bytes
      (Key_set.make store.Store.sc_profile ~tenant:Tenant_id.default ~epoch:Epoch.zero
         ~rotations:store.Store.sc_rotations ~conjugation:store.Store.sc_conjugation)
  in
  let upload = Transcipher.upload_of_config compile in
  {
    tn_store = store;
    tn_key_capacity_bytes = (match key_sets with None -> max_int | Some n -> n * set_bytes);
    tn_key_load_s = key_load_s;
    tn_transcipher_s = 0.0;
    (* no transciphering ingress: clients upload CKKS ciphertexts *)
    tn_upload = { upload with Transcipher.up_sym_bytes = upload.Transcipher.up_ckks_bytes };
  }

type config = {
  fc_nodes : int; (* initial fleet size *)
  fc_policy : Router.policy;
  fc_autoscale : Autoscaler.config option;
  fc_tenancy : tenancy;
}

let default_config =
  {
    fc_nodes = 4;
    fc_policy = Router.Least_loaded;
    fc_autoscale = None;
    fc_tenancy = default_tenancy (Cinnamon_compiler.Compile_config.paper ());
  }

(* Per-run tenant accounting, all accumulated sequentially on the
   virtual clock (never from pool workers). *)
type tenant_result = {
  tr_store : Store.stats;
  tr_key_penalty_s : float; (* summed modeled HBM key-load seconds *)
  tr_transcipher_s : float; (* summed ingress seconds *)
  tr_base_service_s : float; (* summed batch service seconds (no penalties) *)
  tr_key_bytes_loaded : int; (* HBM key traffic across all nodes *)
  tr_upload_sym_bytes : float; (* client bytes actually uploaded *)
  tr_upload_ckks_bytes : float; (* counterfactual direct-CKKS upload *)
  tr_cold_start_ms : (int * float) list; (* tenant -> first-completion latency *)
  tr_events : Store.event list; (* rotation starts/completions *)
}

type result = {
  fr_slo : Slo.t; (* merged: router + every node ever spawned *)
  fr_makespan_s : float;
  fr_router : (string * int) list;
  fr_key_hits : int;
  fr_key_misses : int;
  fr_events : Autoscaler.event list;
  fr_nodes_peak : int;
  fr_nodes_final : int;
  fr_tenants : tenant_result;
}

let key_hit_rate r =
  let total = r.fr_key_hits + r.fr_key_misses in
  if total = 0 then 0.0 else Float.of_int r.fr_key_hits /. Float.of_int total

type fnode = {
  fn_id : int;
  fn_engine : Engine.t;
  fn_keys : Key_cache.t;
  mutable fn_draining : bool;
}

let cmp_arrival (a : Request.t) (b : Request.t) =
  match Float.compare a.Request.req_arrival_s b.Request.req_arrival_s with
  | 0 -> compare a.Request.req_id b.Request.req_id
  | c -> c

let run ?pool ?(on_terminal = fun _ -> []) config ~make_node ~arrivals () =
  let tn = config.fc_tenancy in
  if config.fc_nodes < 1 then Error.fail Error.Invalid_input "Fleet.run: fc_nodes must be >= 1";
  if tn.tn_key_capacity_bytes < 1 then
    Error.fail Error.Invalid_input "Fleet.run: tenancy key capacity must be >= 1 byte";
  if tn.tn_key_load_s < 0.0 || Float.is_nan tn.tn_key_load_s then
    Error.fail Error.Invalid_input "Fleet.run: tenancy key-load penalty must be >= 0";
  if tn.tn_transcipher_s < 0.0 || Float.is_nan tn.tn_transcipher_s then
    Error.fail Error.Invalid_input "Fleet.run: transcipher service must be >= 0";
  Option.iter Autoscaler.validate config.fc_autoscale;
  Tel.name_process ~pid:Engine.serve_pid "serve (virtual time)";
  let store = Store.create tn.tn_store in
  (* tenant accounting, all mutated sequentially on the virtual clock *)
  let key_penalty_s = ref 0.0 in
  let transcipher_s = ref 0.0 in
  let base_service_s = ref 0.0 in
  let upload_sym = ref 0.0 in
  let upload_ckks = ref 0.0 in
  let cold_start = Hashtbl.create 64 in (* tenant int -> first-completion ms *)
  let store_events = ref [] in
  let pending = ref (List.stable_sort cmp_arrival arrivals) in
  let insert_pending rs =
    if rs <> [] then pending := List.merge cmp_arrival (List.stable_sort cmp_arrival rs) !pending
  in
  (* every terminal response funnels through here exactly once: drop
     the request's key lease (its epoch may now finish rotating), log
     the tenant's first completion for cold-start percentiles, and let
     the traffic model react — closed-loop follow-ups re-enter through
     the router *)
  let terminal (resp : Response.t) =
    (let r = resp.Response.req in
     match resp.Response.outcome with
     | Response.Rejected (Admission.Tenant_unavailable _) ->
       () (* never leased: the store refused at admission *)
     | _ -> (
       Store.release store r.Request.req_tenant r.Request.req_epoch;
       match Response.latency_s resp with
       | Some l ->
         let tid = Tenant_id.to_int r.Request.req_tenant in
         if not (Hashtbl.mem cold_start tid) then Hashtbl.replace cold_start tid (l *. 1e3)
       | None -> ()));
    insert_pending (on_terminal resp)
  in
  let mk_fnode id =
    {
      fn_id = id;
      fn_engine = Engine.create ~node:(make_node id) ~respond:terminal;
      fn_keys = Key_cache.create ~capacity_bytes:tn.tn_key_capacity_bytes;
      fn_draining = false;
    }
  in
  let next_node_id = ref 0 in
  let spawn () =
    let id = !next_node_id in
    incr next_node_id;
    mk_fnode id
  in
  (* all nodes ever spawned, in id order; draining shells are dropped
     from this list once empty but their SLO accumulators are kept *)
  let nodes = ref (List.init config.fc_nodes (fun _ -> spawn ())) in
  let retired = ref [] in (* drained shells: SLO + key counters still count *)
  let active () = List.filter (fun n -> not n.fn_draining) !nodes in
  let nodes_peak = ref config.fc_nodes in
  let router = Router.create config.fc_policy in
  let router_slo = Slo.create () in
  (* a refusal no node owns: typed, accounted at the router so the
     merged report keeps every request terminal *)
  let refuse (r : Request.t) err =
    Slo.observe_offered router_slo;
    Slo.observe_rejected router_slo err;
    terminal { Response.req = r; outcome = Response.Rejected err }
  in
  let scaler = Option.map Autoscaler.create config.fc_autoscale in
  let now = ref 0.0 in
  let next_batch_id = ref 0 in
  let next_eval =
    ref (match config.fc_autoscale with Some c -> c.Autoscaler.as_interval_s | None -> infinity)
  in
  let apply_scaling ev =
    match ev.Autoscaler.ev_action with
    | Autoscaler.Scale_up ->
      nodes := !nodes @ [ spawn () ];
      let n_active = List.length (active ()) in
      if n_active > !nodes_peak then nodes_peak := n_active
    | Autoscaler.Scale_down -> (
      (* drain the newest active node: LIFO keeps ids compact and the
         warm caches of older nodes intact *)
      match List.rev (active ()) with
      | [] -> ()
      | newest :: _ ->
        newest.fn_draining <- true;
        Engine.close newest.fn_engine)
  in
  let tick_autoscaler () =
    match scaler with
    | None -> ()
    | Some sc ->
      while !next_eval <= !now do
        let act = active () in
        let n = List.length act in
        let signals =
          {
            Autoscaler.sg_now_s = !next_eval;
            sg_nodes = n;
            sg_mean_depth =
              (if n = 0 then 0.0
               else
                 Float.of_int
                   (List.fold_left (fun acc fn -> acc + Engine.queue_depth fn.fn_engine) 0 act)
                 /. Float.of_int n);
            sg_p99_ms =
              Slo.live_p99_ms (Slo.merge (List.map (fun fn -> Engine.slo fn.fn_engine) act));
          }
        in
        Option.iter apply_scaling (Autoscaler.decide sc signals);
        next_eval := Autoscaler.next_eval_after sc ~now_s:!next_eval
      done
  in
  let place (r : Request.t) =
    (* routes on tenant-key residency: the candidate's [cd_warm] asks
       the node's cache about this request's (tenant, epoch, program)
       entry, so the locality policy follows tenants to their keys *)
    let entry = Key_cache.entry_of_request r in
    let act = active () in
    let candidates =
      List.map
        (fun fn ->
          {
            Router.cd_id = fn.fn_id;
            cd_load = Engine.load fn.fn_engine;
            cd_has_room = Engine.has_room fn.fn_engine;
            cd_warm = Key_cache.mem fn.fn_keys entry;
          })
        act
    in
    match (Router.pick router candidates, act) with
    | Some id, _ ->
      let fn = List.find (fun fn -> fn.fn_id = id) !nodes in
      Engine.offer fn.fn_engine ~now_s:!now r
    | None, first :: _ ->
      (* no node has room: the first one refuses with its own typed
         reason (queue full, or closed by its drain deadline) *)
      Engine.offer first.fn_engine ~now_s:!now r
    | None, [] -> refuse r Admission.Fleet_full
  in
  let route (r : Request.t) =
    (* tenant admission: provision on first sight, lease the current
       epoch, stamp the request with it.  In-flight work keeps its
       stamped epoch through any rotation that starts later. *)
    let leased =
      match Store.lease store r.Request.req_tenant with
      | Error (Store.Unknown_tenant _) -> (
        match Store.provision store r.Request.req_tenant ~now_s:!now with
        | Ok _ -> Store.lease store r.Request.req_tenant
        | Error e -> Error e)
      | x -> x
    in
    match leased with
    | Error e ->
      refuse r
        (Admission.Tenant_unavailable
           { tenant = r.Request.req_tenant; reason = Store.error_to_string e })
    | Ok ks ->
      upload_sym := !upload_sym +. Float.of_int tn.tn_upload.Transcipher.up_sym_bytes;
      upload_ckks := !upload_ckks +. Float.of_int tn.tn_upload.Transcipher.up_ckks_bytes;
      place (Request.with_epoch r (Key_set.epoch ks))
  in
  let rec admit_due () =
    match !pending with
    | r :: rest when r.Request.req_arrival_s <= !now ->
      pending := rest;
      route r;
      admit_due ()
    | _ -> ()
  in
  let dispatch () =
    let pairs =
      List.concat_map
        (fun fn ->
          List.map
            (fun b -> (fn, b))
            (Engine.form_batches fn.fn_engine ~now_s:!now ~next_batch_id))
        !nodes
    in
    match pairs with
    | [] -> ()
    | pairs ->
      let t_dispatch = !now in
      (* warm-key penalties are decided sequentially, in formation
         order, BEFORE the parallel fan-out — cache state never races.
         Every request in a batch shares (tenant, epoch, program) by
         the compat key, so the head request names the batch's entry. *)
      let jobs =
        List.map
          (fun (fn, b) ->
            let head = List.hd b.Batcher.requests in
            let bytes =
              match Store.key_set_for store head.Request.req_tenant head.Request.req_epoch with
              | Ok ks -> Key_set.bytes ks
              | Error _ -> 0 (* unreachable: the lease pins the epoch *)
            in
            let warm = Key_cache.touch fn.fn_keys (Key_cache.entry_of_request head) ~bytes in
            let load = if warm then 0.0 else tn.tn_key_load_s in
            let ingress = tn.tn_transcipher_s *. Float.of_int (Batcher.size b) in
            key_penalty_s := !key_penalty_s +. load;
            transcipher_s := !transcipher_s +. ingress;
            (fn, b, load +. ingress))
          pairs
      in
      let exec (fn, b, _) = Engine.execute fn.fn_engine ~now_s:t_dispatch b in
      let results =
        match pool with Some p -> Exec.Pool.map p exec jobs | None -> List.map exec jobs
      in
      List.iter2
        (fun (fn, b, penalty_s) res ->
          (match res with
          | Ok (service_s, _) -> base_service_s := !base_service_s +. service_s
          | Error _ -> ());
          Engine.commit fn.fn_engine ~now_s:t_dispatch ~extra_service_s:penalty_s b res)
        jobs results
  in
  let reap_drained () =
    let drained, rest =
      List.partition (fun fn -> fn.fn_draining && Engine.is_drained fn.fn_engine) !nodes
    in
    if drained <> [] then begin
      retired := !retired @ drained;
      nodes := rest
    end
  in
  let tick_store () =
    let evs = Store.tick store ~now_s:!now in
    if evs <> [] then store_events := List.rev_append evs !store_events
  in
  let rec loop () =
    tick_autoscaler ();
    (* rotations due at-or-before [now] start (or, drained, complete)
       before this instant's arrivals lease their epochs *)
    tick_store ();
    List.iter (fun fn -> Engine.maybe_close fn.fn_engine ~now_s:!now) !nodes;
    admit_due ();
    List.iter (fun fn -> Engine.shed_expired fn.fn_engine ~now_s:!now) !nodes;
    List.iter (fun fn -> Engine.observe_depth fn.fn_engine) (active ());
    dispatch ();
    if List.exists (fun fn -> Engine.wants_dispatch fn.fn_engine) !nodes then
      (* a permanently failed dispatch freed a worker with work still
         queued: dispatch again before advancing the clock *)
      loop ()
    else begin
      reap_drained ();
      let next_arrival =
        match !pending with [] -> infinity | r :: _ -> r.Request.req_arrival_s
      in
      let next_completion =
        List.fold_left
          (fun acc fn -> Float.min acc (Engine.next_completion_s fn.fn_engine))
          infinity !nodes
      in
      let next_work = Float.min next_arrival next_completion in
      if next_work < infinity then begin
        now := Float.max !now (Float.min next_work !next_eval);
        List.iter (fun fn -> Engine.complete_due fn.fn_engine ~now_s:!now) !nodes;
        loop ()
      end
      (* else: no arrivals pending, every queue empty, nothing in
         flight — the fleet is drained (pending autoscaler evals are
         moot with no work left) *)
    end
  in
  loop ();
  let everyone = !retired @ !nodes in
  let sum f = List.fold_left (fun acc fn -> acc + f fn.fn_keys) 0 everyone in
  {
    fr_slo = Slo.merge (router_slo :: List.map (fun fn -> Engine.slo fn.fn_engine) everyone);
    fr_makespan_s = !now;
    fr_router = Router.decisions router;
    fr_key_hits = sum Key_cache.hits;
    fr_key_misses = sum Key_cache.misses;
    fr_events = (match scaler with None -> [] | Some sc -> Autoscaler.events sc);
    fr_nodes_peak = !nodes_peak;
    fr_nodes_final = List.length (active ());
    fr_tenants =
      {
        tr_store = Store.stats store;
        tr_key_penalty_s = !key_penalty_s;
        tr_transcipher_s = !transcipher_s;
        tr_base_service_s = !base_service_s;
        tr_key_bytes_loaded = sum Key_cache.loaded_bytes;
        tr_upload_sym_bytes = !upload_sym;
        tr_upload_ckks_bytes = !upload_ckks;
        tr_cold_start_ms =
          Hashtbl.fold (fun tid ms acc -> (tid, ms) :: acc) cold_start []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
        tr_events = List.rev !store_events;
      };
  }
