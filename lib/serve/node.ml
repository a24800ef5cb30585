(* A serving node as a first-class value: what it can do (execute a
   batch) and how much of it there is (capacity).  The fleet driver
   steps heterogeneous nodes through this one typed record; a
   single-node server is a fleet of one.

   [execute] is the node's real work: compile + cycle-simulate the
   batch's workload (usually through Exec.Result_cache) and return its
   service time in virtual seconds.  It runs on pool workers, so it
   must not touch node-local mutable state.  Raising [Transient]
   signals a retryable hiccup (the scheduler re-runs the batch in
   place, up to [capacity.max_attempts] total attempts); any other
   exception fails the batch permanently. *)

module Error = Cinnamon_util.Error

exception Transient of string

type capacity = {
  workers : int; (* simulated parallel executors *)
  queue_capacity : int;
  max_batch : int; (* also capped per-batch by the ring's slot count *)
  max_attempts : int; (* total executor attempts per batch *)
  drain_after_s : float option; (* close admission at this virtual time *)
}

let default_capacity =
  { workers = 2; queue_capacity = 64; max_batch = 8; max_attempts = 3; drain_after_s = None }

type t = {
  name : string;
  execute : now_s:float -> Batcher.batch -> float;
  capacity : capacity;
}

let validate_capacity c =
  if c.workers < 1 then Error.fail Error.Invalid_input "Node: workers must be >= 1";
  if c.queue_capacity < 1 then Error.fail Error.Invalid_input "Node: queue_capacity must be >= 1";
  if c.max_batch < 1 then Error.fail Error.Invalid_input "Node: max_batch must be >= 1";
  if c.max_attempts < 1 then Error.fail Error.Invalid_input "Node: max_attempts must be >= 1"

let make ?(name = "node") ?(capacity = default_capacity) ~execute () =
  validate_capacity capacity;
  { name; execute; capacity }
