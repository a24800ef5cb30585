(* The per-node serving core: admission queue, batch formation,
   executor retries, simulated-worker occupancy, and SLO accounting for
   ONE node, exposed as incremental steps on a caller-owned virtual
   clock.

   Fleet.run, the one serving loop, drives N of them (one for a
   single-node server), which is why this is step-at-a-time rather
   than run-to-completion: at each virtual instant the fleet forms
   batches on every node ([form_batches]), fans ALL of them across one
   shared Exec.Pool ([execute] is pool-safe — it touches no engine
   state), then commits results back per node ([commit]).  Batch
   formation and commit order are sequential and virtual-time-only, so
   runs stay bit-identical for any pool size.

   Terminal responses stream through the [respond] callback given at
   [create]; the engine never retains them, so drivers that only count
   (million-request fleet sweeps) stay O(inflight) in memory.  SLO
   observations (offered/admitted/rejected/shed/failed/completed,
   batches, retries, depth gauge) happen here, against this node's
   accumulator; drivers fold per-node accumulators with [Slo.merge]. *)

module Tel = Cinnamon_telemetry.Telemetry

(* Virtual-time trace rows for per-request events. *)
let serve_pid = 99

let c_admitted = Tel.Counter.make ~cat:"serve" "requests_admitted"
let c_rejected = Tel.Counter.make ~cat:"serve" "requests_rejected"
let c_shed = Tel.Counter.make ~cat:"serve" "requests_shed"
let c_completed = Tel.Counter.make ~cat:"serve" "requests_completed"
let c_failed = Tel.Counter.make ~cat:"serve" "requests_failed"
let c_retries = Tel.Counter.make ~cat:"serve" "batch_retries"
let c_batches = Tel.Counter.make ~cat:"serve" "batches_dispatched"

type inflight = {
  if_finish_s : float;
  if_started_s : float;
  if_batch : Batcher.batch;
  if_attempts : int;
}

type exec_outcome = (float * int, int * string) result

type t = {
  node : Node.t;
  q : Admission.t;
  slo : Slo.t;
  respond : Response.t -> unit;
  mutable inflight : inflight list; (* sorted by if_finish_s *)
  mutable inflight_requests : int; (* requests in [inflight]'s batches *)
  mutable free : int;
}

let create ~node ~respond =
  Node.validate_capacity node.Node.capacity;
  {
    node;
    q = Admission.create ~capacity:node.Node.capacity.Node.queue_capacity;
    slo = Slo.create ();
    respond;
    inflight = [];
    inflight_requests = 0;
    free = node.Node.capacity.Node.workers;
  }

let node t = t.node
let name t = t.node.Node.name
let slo t = t.slo
let queue_depth t = Admission.depth t.q

(* Router's least-loaded signal: work accepted but not yet finished. *)
let load t = queue_depth t + t.inflight_requests
let has_room t = (not (Admission.is_closed t.q)) && queue_depth t < Admission.capacity t.q
let is_closed t = Admission.is_closed t.q
let close t = if not (Admission.is_closed t.q) then Admission.close t.q
let is_drained t = Admission.is_empty t.q && t.inflight = []

let respond t (req : Request.t) (outcome : Response.outcome) =
  let resp = { Response.req; outcome } in
  (match outcome with
  | Response.Completed c ->
    Slo.observe_completed t.slo
      ~latency_s:(c.finished_s -. req.Request.req_arrival_s)
      ~met:(c.finished_s <= req.Request.req_deadline_s);
    Tel.Counter.incr c_completed;
    if Tel.enabled () then
      Tel.emit_complete ~cat:"serve" ~pid:serve_pid
        ~tid:(Request.priority_rank req.Request.req_priority)
        ~ts:(req.Request.req_arrival_s *. 1e6)
        ~dur:((c.finished_s -. req.Request.req_arrival_s) *. 1e6)
        ~args:
          [ ("bench", Tel.Str req.Request.req_bench); ("system", Tel.Str req.Request.req_system);
            ("node", Tel.Str t.node.Node.name); ("batch", Tel.Int c.batch_id);
            ("deadline_met", Tel.Str (if Response.met_deadline resp then "yes" else "no")) ]
        (Printf.sprintf "%s@%s" req.Request.req_bench req.Request.req_system)
  | Response.Rejected e ->
    Slo.observe_rejected t.slo e;
    Tel.Counter.incr c_rejected
  | Response.Shed s ->
    Slo.observe_shed t.slo;
    Tel.Counter.incr c_shed;
    if Tel.enabled () then
      Tel.emit_instant ~cat:"serve" ~pid:serve_pid
        ~tid:(Request.priority_rank req.Request.req_priority)
        ~ts:(s.shed_s *. 1e6) "shed"
  | Response.Failed _ ->
    Slo.observe_failed t.slo;
    Tel.Counter.incr c_failed);
  t.respond resp

let offer t ~now_s r =
  Slo.observe_offered t.slo;
  match Admission.admit t.q ~now_s r with
  | Ok () ->
    Slo.observe_admitted t.slo;
    Tel.Counter.incr c_admitted
  | Error e -> respond t r (Response.Rejected e)

let maybe_close t ~now_s =
  match t.node.Node.capacity.Node.drain_after_s with
  | Some d when now_s >= d -> close t
  | _ -> ()

let shed_expired t ~now_s =
  List.iter
    (fun (r : Request.t) ->
      respond t r (Response.Shed { deadline_s = r.Request.req_deadline_s; shed_s = now_s }))
    (Admission.shed_expired t.q ~now_s)

let observe_depth t = Slo.observe_queue_depth t.slo (Admission.depth t.q)
let wants_dispatch t = t.free > 0 && not (Admission.is_empty t.q)

let form_batches t ~now_s ~next_batch_id =
  let rec collect acc =
    if t.free <= 0 then List.rev acc
    else
      match
        Batcher.form t.q ~now_s ~max_batch:t.node.Node.capacity.Node.max_batch
          ~batch_id:!next_batch_id
      with
      | None -> List.rev acc
      | Some b ->
        incr next_batch_id;
        t.free <- t.free - 1;
        collect (b :: acc)
  in
  collect []

(* One executor call per batch, with in-place retries on Transient.
   Touches no engine state, so the caller may run it on a pool worker
   — including batches from many engines in one Pool.map.  The span and
   its arguments are built only while tracing. *)
let execute t ~now_s (b : Batcher.batch) : exec_outcome =
  let max_attempts = t.node.Node.capacity.Node.max_attempts in
  let call k =
    if Tel.enabled () then
      Tel.Span.with_ ~cat:"serve" "serve.execute"
        ~args:
          [ ("key", Tel.Str b.Batcher.batch_key); ("size", Tel.Int (Batcher.size b));
            ("node", Tel.Str t.node.Node.name); ("attempt", Tel.Int k) ]
        (fun () -> t.node.Node.execute ~now_s b)
    else t.node.Node.execute ~now_s b
  in
  let rec attempt k =
    match call k with
    | s when Float.is_nan s || s < 0.0 ->
      Error (k, Printf.sprintf "executor returned invalid service time %g" s)
    | s -> Ok (s, k)
    | exception Node.Transient msg ->
      if k >= max_attempts then Error (k, "transient (retries exhausted): " ^ msg)
      else attempt (k + 1)
    | exception e -> Error (k, Printexc.to_string e)
  in
  attempt 1

let insert_inflight t entry =
  let rec ins = function
    | [] -> [ entry ]
    | x :: rest as l -> if entry.if_finish_s < x.if_finish_s then entry :: l else x :: ins rest
  in
  t.inflight <- ins t.inflight;
  t.inflight_requests <- t.inflight_requests + Batcher.size entry.if_batch

let commit t ~now_s ?(extra_service_s = 0.0) (b : Batcher.batch) (res : exec_outcome) =
  Slo.observe_batch t.slo ~size:(Batcher.size b);
  Tel.Counter.incr c_batches;
  match res with
  | Ok (service_s, attempts) ->
    Slo.observe_retries t.slo (attempts - 1);
    Tel.Counter.add c_retries (attempts - 1);
    insert_inflight t
      {
        if_finish_s = now_s +. service_s +. extra_service_s;
        if_started_s = now_s;
        if_batch = b;
        if_attempts = attempts;
      }
  | Error (attempts, reason) ->
    Slo.observe_retries t.slo (attempts - 1);
    Tel.Counter.add c_retries (attempts - 1);
    t.free <- t.free + 1;
    List.iter
      (fun r -> respond t r (Response.Failed { attempts; failed_s = now_s; reason }))
      b.Batcher.requests

let next_completion_s t = match t.inflight with [] -> infinity | e :: _ -> e.if_finish_s

let complete_due t ~now_s =
  let rec go () =
    match t.inflight with
    | entry :: rest when entry.if_finish_s <= now_s ->
      t.inflight <- rest;
      t.free <- t.free + 1;
      let b = entry.if_batch in
      let size = Batcher.size b in
      t.inflight_requests <- t.inflight_requests - size;
      List.iter
        (fun r ->
          respond t r
            (Response.Completed
               {
                 started_s = entry.if_started_s;
                 finished_s = entry.if_finish_s;
                 attempts = entry.if_attempts;
                 batch_id = b.Batcher.batch_id;
                 batch_size = size;
               }))
        b.Batcher.requests;
      go ()
    | _ -> ()
  in
  go ()
