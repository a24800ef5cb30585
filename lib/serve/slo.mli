(** SLO accounting for the serving layer.

    A streaming accumulator ({!t}) the server feeds as requests reach
    terminal states — latencies go into a fixed-bucket streaming
    histogram ({!Cinnamon_util.Stats.Histogram}), so memory stays
    O(buckets) — and a {!report} computed once the run ends.

    Fleet runs keep one accumulator per node plus one at the router
    and fold them with {!merge} before reporting; the fold is purely
    additive, so the merged report is deterministic in node order.

    Definitions: {b throughput} = completions per virtual second;
    {b goodput} = deadline-met completions per virtual second;
    {b shed rate} = shed / admitted; {b reject rate} = rejected /
    offered. *)

type t

val create : unit -> t

(** {1 Streaming observations} *)

val observe_offered : t -> unit
val observe_admitted : t -> unit
val observe_rejected : t -> Admission.error -> unit
val observe_shed : t -> unit
val observe_failed : t -> unit
val observe_completed : t -> latency_s:float -> met:bool -> unit

(** Count [n] additional execution attempts ([n <= 0] is a no-op). *)
val observe_retries : t -> int -> unit

val observe_batch : t -> size:int -> unit

(** Queue-depth gauge, sampled by the server at every event-loop step. *)
val observe_queue_depth : t -> int -> unit

(** {1 Live gauges}

    Mid-run signals for the autoscaler; the full {!report} is
    end-of-run only. *)

val completed : t -> int
val deadline_met : t -> int

(** Streaming 99th-percentile latency over completions so far; [None]
    until something completes. *)
val live_p99_ms : t -> float option

(** Fold accumulators (per-node + router) into a fresh fleet-wide one:
    counters add, latency histograms add bucketwise, the depth gauge
    pools its samples.  Deterministic in list order. *)
val merge : t list -> t

(** {1 Report} *)

type report = {
  rp_offered : int;
  rp_admitted : int;
  rp_rejected_full : int;
  rp_rejected_expired : int;
  rp_rejected_closed : int;
  rp_rejected_fleet : int;  (** the fleet had no active node *)
  rp_rejected_tenant : int;  (** tenant key store refused the lease *)
  rp_shed : int;
  rp_failed : int;
  rp_completed : int;
  rp_deadline_met : int;
  rp_retries : int;
  rp_batches : int;
  rp_mean_batch : float;
  rp_p50_ms : float option;  (** [None] when nothing completed *)
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
  rp_compiles : int;  (** pipeline compiles actually run (cache misses) *)
  rp_cache_hits : int;
}

val report : t -> duration_s:float -> compiles:int -> cache_hits:int -> report

(** The [serve_loadtest]/[serve_fleet] JSON shape; absent percentiles
    (zero completions) render as [null], so the document is always
    valid JSON. *)
val report_json : report -> Cinnamon_util.Json.t

val to_string : report -> string
val print : report -> unit
