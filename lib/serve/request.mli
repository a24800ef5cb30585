(** An encrypted-inference request: workload + system registry names,
    compile configuration, arrival time, priority, and absolute
    deadline, all on the serving layer's virtual clock (seconds). *)

type priority = High | Normal | Low

(** [High] ranks before [Normal] before [Low]. *)
val priority_rank : priority -> int

type t = private {
  req_id : int;
  req_bench : string;  (** benchmark registry name (see [Specs.benchmarks]) *)
  req_system : string;  (** system registry name (see [Runner.systems]) *)
  req_config : Cinnamon_compiler.Compile_config.t;
  req_priority : priority;
  req_arrival_s : float;
  req_deadline_s : float;  (** absolute; [infinity] = no deadline *)
  req_tenant : Cinnamon_tenant.Tenant_id.t;
      (** whose key material serves this request *)
  req_epoch : Cinnamon_tenant.Epoch.t;
      (** key epoch bound at admission (the fleet stamps it from its
          tenant key store) *)
  req_program : string;
      (** the compiled program's identity: [bench|system|] and the MD5
          of {!Cinnamon_exec.Cache_key.config_sig} of [req_config], in
          hex.  Computed once by {!make}; the record is private, so it
          cannot fall out of step with the fields it digests. *)
}

(** [config] defaults to [Compile_config.paper ()], [priority] to
    [Normal], [deadline_s] to [infinity], [tenant] to
    [Tenant_id.default] and [epoch] to [Epoch.zero] (until the fleet
    stamps its leased epoch).  Raises [Invalid_argument] on a negative or nan
    arrival time. *)
val make :
  ?config:Cinnamon_compiler.Compile_config.t ->
  ?priority:priority ->
  ?deadline_s:float ->
  ?tenant:Cinnamon_tenant.Tenant_id.t ->
  ?epoch:Cinnamon_tenant.Epoch.t ->
  id:int ->
  bench:string ->
  system:string ->
  arrival_s:float ->
  unit ->
  t

(** Admission-time epoch binding; in-flight work is never rebound. *)
val with_epoch : t -> Cinnamon_tenant.Epoch.t -> t

(** CKKS slot count of the request's ring ([2^(log_n - 1)]): the hard
    cap on batch size for slot packing. *)
val slots : t -> int

(** The deadline lies strictly before [now_s]. *)
val expired : t -> now_s:float -> bool

(** Dispatch order: priority class, then arrival, then id. *)
val compare_order : t -> t -> int
