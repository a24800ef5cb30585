(** The per-node serving core, exposed as incremental steps on a
    caller-owned virtual clock.

    One engine owns one node's admission queue, batch formation,
    executor retries, simulated-worker occupancy, and SLO accumulator.
    The fleet driver ([Cinnamon_fleet.Fleet.run], the one serving
    loop) steps N of them, fanning every node's batches across one
    shared pool at each virtual instant ({!execute} is pool-safe).  Terminal responses stream through the [respond]
    callback — the engine retains none of them. *)

(** Trace pid used for serving-layer telemetry rows. *)
val serve_pid : int

type t

(** [Ok (service_s, attempts)] or [Error (attempts, reason)]. *)
type exec_outcome = (float * int, int * string) result

(** Validates [node.capacity]; [respond] fires exactly once per
    terminal response, after this node's SLO accumulator has absorbed
    it. *)
val create : node:Node.t -> respond:(Response.t -> unit) -> t

val node : t -> Node.t
val name : t -> string
val slo : t -> Slo.t
val queue_depth : t -> int
val free_workers : t -> int

(** Requests in flight inside dispatched batches. *)
val inflight_requests : t -> int

(** Router's least-loaded signal: queued + in-flight requests. *)
val load : t -> int

(** Admission open and the queue below capacity. *)
val has_room : t -> bool

val is_closed : t -> bool

(** Stop admitting (graceful drain); queued/in-flight work still runs
    to terminal states. *)
val close : t -> unit

(** Queue empty and nothing in flight. *)
val is_drained : t -> bool

(** {1 Per-step operations, in loop order} *)

(** Apply the node's own [drain_after_s] deadline. *)
val maybe_close : t -> now_s:float -> unit

(** Count the request as offered, then admit or emit a typed
    [Rejected] response. *)
val offer : t -> now_s:float -> Request.t -> unit

(** Shed queued requests whose deadlines passed, emitting [Shed]
    responses. *)
val shed_expired : t -> now_s:float -> unit

(** Sample the queue-depth gauge. *)
val observe_depth : t -> unit

(** A free simulated worker and a non-empty queue (e.g. after a failed
    dispatch freed one mid-instant). *)
val wants_dispatch : t -> bool

(** Form as many batches as there are free simulated workers, claiming
    a worker and an id (from the shared counter) per batch.  Every
    batch MUST then be passed through {!execute} and {!commit}
    exactly once. *)
val form_batches : t -> now_s:float -> next_batch_id:int ref -> Batcher.batch list

(** Run the node's executor on one batch with in-place [Transient]
    retries.  Touches no engine state — safe on a pool worker,
    including batches from many engines in one [Pool.map]. *)
val execute : t -> now_s:float -> Batcher.batch -> exec_outcome

(** Book the outcome: [Ok] occupies the claimed worker until
    [now_s + service + extra_service_s] ([extra_service_s] models e.g.
    a key-cache miss HBM load); [Error] frees the worker and fails the
    batch's requests.  Sequential — call in deterministic batch
    order. *)
val commit : t -> now_s:float -> ?extra_service_s:float -> Batcher.batch -> exec_outcome -> unit

(** Virtual finish time of the earliest in-flight batch; [infinity] if
    idle. *)
val next_completion_s : t -> float

(** Emit [Completed] responses for every batch finishing at or before
    [now_s], freeing their workers. *)
val complete_due : t -> now_s:float -> unit
