(** Dynamic batching of compatible requests.

    Two requests are compatible — may share one compiled program and
    one CKKS slot-packed execution — iff they name the same benchmark
    and system and carry structurally identical compile configurations
    ({!compat_key}).  Batch size is capped by the caller's maximum and
    by the ring's slot count ([Request.slots]). *)

type batch = private {
  batch_id : int;
  batch_key : string;
  requests : Request.t list;  (** dispatch order; non-empty *)
  formed_s : float;
}

val size : batch -> int

(** The compatibility key: tenant, epoch, then the request's
    [req_program] — benchmark name, system name, and a digest of
    {!Cinnamon_exec.Cache_key.config_sig}, the same structural
    rendering of the compile configuration (every behavioural field)
    the result cache keys on.  {!form} groups by the same fields
    without rendering it per request. *)
val compat_key : Request.t -> string

(** [form q ~now_s ~max_batch ~batch_id] pops the head-of-line request
    and every compatible queued request (in dispatch order) up to
    [min max_batch (slot count)]; [None] iff the queue is empty. *)
val form : Admission.t -> now_s:float -> max_batch:int -> batch_id:int -> batch option
