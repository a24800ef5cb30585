(** The single-node serving load test: a fleet of one node running the
    real compile+simulate executor, one tenant with an unbounded key
    budget, under open- or closed-loop clients.  Results merge into
    [BENCH_cinnamon.json] under ["serve_loadtest"][mode]. *)

module CC = Cinnamon_compiler.Compile_config

type mode =
  | Open_loop of { overload : float }
      (** Poisson arrivals at [overload] x the node's aggregate
          service capacity ([workers / mean service time]) — [> 1]
          provokes queueing and shedding *)
  | Closed_loop of { clients : int; think_factor : float }
      (** each client issues its next request one think time
          ([think_factor] x mean service) after its previous request
          reaches a terminal state *)

type config = {
  lg_mode : mode;
  lg_requests : int;  (** total requests to issue *)
  lg_mix : Cinnamon_serve.Loadgen.class_spec list;
  lg_seed : int;  (** all randomness (arrivals, mix, priorities) *)
  lg_deadline_factor : float;
      (** deadline = arrival + factor x class base service time *)
  lg_capacity : Cinnamon_serve.Node.capacity;
  lg_compile : CC.t;
  lg_jobs : int;  (** real pool workers; 0 = recommended count *)
}

(** 80 bootstrap\@cinnamon-4 requests, open loop at 4x overload against
    2 workers / capacity 12 / max batch 4 — finishes in seconds, still
    exercises queueing, batching and shedding. *)
val quick : config

(** 300 requests, 70/30 bootstrap/resnet mix, otherwise {!quick}. *)
val default : config

type result = {
  lr_mode : string;  (** "open_loop" or "closed_loop" *)
  lr_rate_rps : float;  (** offered (open) or nominal (closed) rate *)
  lr_base_service : (string * float) list;
      (** ["bench\@system"] → calibrated service seconds *)
  lr_report : Cinnamon_serve.Slo.report;
}

(** Calibrate the mix, generate the arrival stream, play it through
    {!Fleet.run} on one node built from
    {!Cinnamon_serve.Loadgen.workload_executor}, and report.  Raises
    typed [Invalid_input] errors on an empty mix, non-positive
    weights, counts or factors, and [Unknown_name] on workload names
    missing from the registries. *)
val run : config -> result

val result_json : result -> Cinnamon_util.Json.t
val print_result : result -> unit

(** Merge this result into [file] under ["serve_loadtest"][mode],
    keeping every other key (see {!Cinnamon_exec.Bench_file}). *)
val write_section : file:string -> result -> unit
