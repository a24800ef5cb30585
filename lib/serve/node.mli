(** A serving node as a first-class value.

    The typed record every scheduler-facing component implements: the
    load tests wrap the real compile+simulate executor
    ({!Loadgen.workload_executor}) in one, tests build synthetic ones,
    and the fleet driver steps heterogeneous nodes through this one
    interface.  How clients react to responses belongs to the traffic,
    not to a node: it is the fleet driver's [on_terminal]. *)

(** Raised by {!t.execute} to signal a retryable failure; the
    scheduler re-runs the batch in place, up to
    [capacity.max_attempts] total attempts.  Any other exception fails
    the batch permanently. *)
exception Transient of string

type capacity = {
  workers : int;  (** simulated parallel executors, >= 1 *)
  queue_capacity : int;  (** admission queue bound, >= 1 *)
  max_batch : int;
      (** upper bound on batch size; each batch is further capped by
          its ring's CKKS slot count ({!Request.slots}) *)
  max_attempts : int;  (** total executor attempts per batch, >= 1 *)
  drain_after_s : float option;
      (** close admission at this virtual time; admitted work still
          drains to completion *)
}

(** workers 2, capacity 64, max batch 8, 3 attempts, no forced drain. *)
val default_capacity : capacity

type t = {
  name : string;
  execute : now_s:float -> Batcher.batch -> float;
      (** the node's real work: compile + simulate the batch and
          return its service time in virtual seconds; runs on pool
          workers, so it must not touch node-local mutable state *)
  capacity : capacity;
}

(** Raises a typed [Invalid_input] error on a non-positive field. *)
val validate_capacity : capacity -> unit

(** [make ~execute ()] builds a node; [capacity] defaults to
    {!default_capacity} (validated). *)
val make :
  ?name:string ->
  ?capacity:capacity ->
  execute:(now_s:float -> Batcher.batch -> float) ->
  unit ->
  t
