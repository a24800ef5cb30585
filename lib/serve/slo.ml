(* SLO accounting: a streaming accumulator the server feeds as requests
   reach terminal states, and a report computed at the end of a run.

   Latencies stream into a fixed-bucket geometric histogram
   (Cinnamon_util.Stats.Histogram), so memory is O(buckets) however
   long the run; p50/p95/p99 are bucket-interpolated quantiles.
   Percentile/mean/max fields are [None] when nothing completed — a
   zero-completion report serializes to valid JSON ([null] fields),
   never to bare [nan] tokens.

   Fleet runs keep one accumulator per node (plus one at the router
   for fleet-level rejections) and fold them with [merge]: counters
   add, histograms add bucketwise, and the queue-depth gauge pools its
   samples — deterministic whatever order the nodes are listed in.

   Definitions:
   - throughput = completed / duration;
   - goodput    = deadline-met completions / duration (the paper-world
     serving metric: work delivered in time);
   - shed rate  = shed / admitted (admitted work the server gave up on);
   - reject rate = rejected / offered (work refused at the door,
     whether by a node, the tenant key store, or an empty fleet). *)

module H = Cinnamon_util.Stats.Histogram
module Json = Cinnamon_util.Json

type t = {
  hist : H.t; (* completed-request latency, seconds *)
  mutable offered : int;
  mutable admitted : int;
  mutable rejected_full : int;
  mutable rejected_expired : int;
  mutable rejected_closed : int;
  mutable rejected_fleet : int;
  mutable rejected_tenant : int;
  mutable shed : int;
  mutable failed : int;
  mutable completed : int;
  mutable deadline_met : int;
  mutable retries : int;
  mutable batches : int;
  mutable batched_requests : int;
  mutable depth_sum : int;
  mutable depth_samples : int;
  mutable depth_max : int;
}

let create () =
  {
    (* 1 us .. ~28 h of virtual latency at ~4% bucket resolution *)
    hist = H.make ~lo:1e-6 ~hi:1e5 ();
    offered = 0;
    admitted = 0;
    rejected_full = 0;
    rejected_expired = 0;
    rejected_closed = 0;
    rejected_fleet = 0;
    rejected_tenant = 0;
    shed = 0;
    failed = 0;
    completed = 0;
    deadline_met = 0;
    retries = 0;
    batches = 0;
    batched_requests = 0;
    depth_sum = 0;
    depth_samples = 0;
    depth_max = 0;
  }

let observe_offered t = t.offered <- t.offered + 1
let observe_admitted t = t.admitted <- t.admitted + 1

let observe_rejected t (e : Admission.error) =
  match e with
  | Admission.Queue_full _ -> t.rejected_full <- t.rejected_full + 1
  | Admission.Expired _ -> t.rejected_expired <- t.rejected_expired + 1
  | Admission.Closed -> t.rejected_closed <- t.rejected_closed + 1
  | Admission.Fleet_full -> t.rejected_fleet <- t.rejected_fleet + 1
  | Admission.Tenant_unavailable _ -> t.rejected_tenant <- t.rejected_tenant + 1

let observe_shed t = t.shed <- t.shed + 1
let observe_failed t = t.failed <- t.failed + 1

let observe_completed t ~latency_s ~met =
  t.completed <- t.completed + 1;
  if met then t.deadline_met <- t.deadline_met + 1;
  H.add t.hist (Float.max 0.0 latency_s)

let observe_retries t n = if n > 0 then t.retries <- t.retries + n

let observe_batch t ~size =
  t.batches <- t.batches + 1;
  t.batched_requests <- t.batched_requests + size

let observe_queue_depth t d =
  t.depth_sum <- t.depth_sum + d;
  t.depth_samples <- t.depth_samples + 1;
  if d > t.depth_max then t.depth_max <- d

(* Live gauges the autoscaler reads mid-run (the report below is
   end-of-run only). *)
let completed t = t.completed
let deadline_met t = t.deadline_met
let live_p99_ms t = if t.completed = 0 then None else Some (H.quantile t.hist 0.99 *. 1e3)

let merge ts =
  let acc = create () in
  List.iter
    (fun s ->
      H.merge_into ~dst:acc.hist s.hist;
      acc.offered <- acc.offered + s.offered;
      acc.admitted <- acc.admitted + s.admitted;
      acc.rejected_full <- acc.rejected_full + s.rejected_full;
      acc.rejected_expired <- acc.rejected_expired + s.rejected_expired;
      acc.rejected_closed <- acc.rejected_closed + s.rejected_closed;
      acc.rejected_fleet <- acc.rejected_fleet + s.rejected_fleet;
      acc.rejected_tenant <- acc.rejected_tenant + s.rejected_tenant;
      acc.shed <- acc.shed + s.shed;
      acc.failed <- acc.failed + s.failed;
      acc.completed <- acc.completed + s.completed;
      acc.deadline_met <- acc.deadline_met + s.deadline_met;
      acc.retries <- acc.retries + s.retries;
      acc.batches <- acc.batches + s.batches;
      acc.batched_requests <- acc.batched_requests + s.batched_requests;
      acc.depth_sum <- acc.depth_sum + s.depth_sum;
      acc.depth_samples <- acc.depth_samples + s.depth_samples;
      if s.depth_max > acc.depth_max then acc.depth_max <- s.depth_max)
    ts;
  acc

type report = {
  rp_offered : int;
  rp_admitted : int;
  rp_rejected_full : int;
  rp_rejected_expired : int;
  rp_rejected_closed : int;
  rp_rejected_fleet : int;
  rp_rejected_tenant : int;
  rp_shed : int;
  rp_failed : int;
  rp_completed : int;
  rp_deadline_met : int;
  rp_retries : int;
  rp_batches : int;
  rp_mean_batch : float;
  rp_p50_ms : float option;
  rp_p95_ms : float option;
  rp_p99_ms : float option;
  rp_mean_ms : float option;
  rp_max_ms : float option;
  rp_throughput_rps : float;
  rp_goodput_rps : float;
  rp_shed_rate : float;
  rp_reject_rate : float;
  rp_queue_depth_mean : float;
  rp_queue_depth_max : int;
  rp_duration_s : float;
  rp_compiles : int;
  rp_cache_hits : int;
}

let report t ~duration_s ~compiles ~cache_hits =
  let dur = Float.max duration_s 1e-12 in
  (* zero-completion runs have no latency distribution: None, not nan *)
  let ms v = if t.completed = 0 || Float.is_nan v then None else Some (v *. 1e3) in
  let ratio a b = if b = 0 then 0.0 else Float.of_int a /. Float.of_int b in
  {
    rp_offered = t.offered;
    rp_admitted = t.admitted;
    rp_rejected_full = t.rejected_full;
    rp_rejected_expired = t.rejected_expired;
    rp_rejected_closed = t.rejected_closed;
    rp_rejected_fleet = t.rejected_fleet;
    rp_rejected_tenant = t.rejected_tenant;
    rp_shed = t.shed;
    rp_failed = t.failed;
    rp_completed = t.completed;
    rp_deadline_met = t.deadline_met;
    rp_retries = t.retries;
    rp_batches = t.batches;
    rp_mean_batch = (if t.batches = 0 then 0.0 else ratio t.batched_requests t.batches);
    rp_p50_ms = ms (H.quantile t.hist 0.50);
    rp_p95_ms = ms (H.quantile t.hist 0.95);
    rp_p99_ms = ms (H.quantile t.hist 0.99);
    rp_mean_ms = ms (H.mean t.hist);
    rp_max_ms = ms (H.max_value t.hist);
    rp_throughput_rps = Float.of_int t.completed /. dur;
    rp_goodput_rps = Float.of_int t.deadline_met /. dur;
    rp_shed_rate = ratio t.shed t.admitted;
    rp_reject_rate =
      ratio
        (t.rejected_full + t.rejected_expired + t.rejected_closed + t.rejected_fleet
       + t.rejected_tenant)
        t.offered;
    rp_queue_depth_mean =
      (if t.depth_samples = 0 then 0.0 else ratio t.depth_sum t.depth_samples);
    rp_queue_depth_max = t.depth_max;
    rp_duration_s = duration_s;
    rp_compiles = compiles;
    rp_cache_hits = cache_hits;
  }

let json_opt = function None -> Json.Null | Some v -> Json.Float v

let report_json r =
  Json.Obj
    [
      ("offered", Json.Int r.rp_offered);
      ("admitted", Json.Int r.rp_admitted);
      ("rejected_queue_full", Json.Int r.rp_rejected_full);
      ("rejected_expired", Json.Int r.rp_rejected_expired);
      ("rejected_closed", Json.Int r.rp_rejected_closed);
      ("rejected_fleet_full", Json.Int r.rp_rejected_fleet);
      ("rejected_tenant", Json.Int r.rp_rejected_tenant);
      ("shed", Json.Int r.rp_shed);
      ("failed", Json.Int r.rp_failed);
      ("completed", Json.Int r.rp_completed);
      ("deadline_met", Json.Int r.rp_deadline_met);
      ("retries", Json.Int r.rp_retries);
      ("batches", Json.Int r.rp_batches);
      ("mean_batch", Json.Float r.rp_mean_batch);
      ("p50_ms", json_opt r.rp_p50_ms);
      ("p95_ms", json_opt r.rp_p95_ms);
      ("p99_ms", json_opt r.rp_p99_ms);
      ("mean_ms", json_opt r.rp_mean_ms);
      ("max_ms", json_opt r.rp_max_ms);
      ("throughput_rps", Json.Float r.rp_throughput_rps);
      ("goodput_rps", Json.Float r.rp_goodput_rps);
      ("shed_rate", Json.Float r.rp_shed_rate);
      ("reject_rate", Json.Float r.rp_reject_rate);
      ("queue_depth_mean", Json.Float r.rp_queue_depth_mean);
      ("queue_depth_max", Json.Int r.rp_queue_depth_max);
      ("duration_s", Json.Float r.rp_duration_s);
      ("compiles", Json.Int r.rp_compiles);
      ("cache_hits", Json.Int r.rp_cache_hits);
    ]

let fmt_ms = function None -> "-" | Some v -> Printf.sprintf "%.3f ms" v

let to_string r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "requests: offered %d, admitted %d, completed %d (%d met deadline), shed %d, failed %d"
    r.rp_offered r.rp_admitted r.rp_completed r.rp_deadline_met r.rp_shed r.rp_failed;
  line
    "rejected: %d queue-full, %d expired-on-arrival, %d during drain, %d fleet-full, %d \
     tenant-unavailable"
    r.rp_rejected_full r.rp_rejected_expired r.rp_rejected_closed r.rp_rejected_fleet
    r.rp_rejected_tenant;
  line "latency:  p50 %s, p95 %s, p99 %s, mean %s, max %s" (fmt_ms r.rp_p50_ms)
    (fmt_ms r.rp_p95_ms) (fmt_ms r.rp_p99_ms) (fmt_ms r.rp_mean_ms) (fmt_ms r.rp_max_ms);
  line "rates:    throughput %.2f req/s, goodput %.2f req/s, shed rate %.1f%%, reject rate %.1f%%"
    r.rp_throughput_rps r.rp_goodput_rps (100.0 *. r.rp_shed_rate) (100.0 *. r.rp_reject_rate);
  line "batching: %d batches, mean size %.2f; %d compiles for %d admitted (%d cache hits)"
    r.rp_batches r.rp_mean_batch r.rp_compiles r.rp_admitted r.rp_cache_hits;
  line "queue:    mean depth %.2f, max depth %d; retries %d; virtual duration %.3f s"
    r.rp_queue_depth_mean r.rp_queue_depth_max r.rp_retries r.rp_duration_s;
  Buffer.contents b

let print r = print_string (to_string r)
