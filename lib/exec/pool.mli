(** Domain-based job pool with a bounded work queue.

    Jobs run on OCaml 5 domains; submission blocks once the queue holds
    [queue_capacity] pending jobs.  A pool of one job spawns no domains
    and degenerates to sequential execution in the caller, which is the
    automatic behaviour when [Domain.recommended_domain_count () = 1].

    {!map} returns results in input order whatever the completion
    order, so a parallel sweep is a drop-in replacement for [List.map]
    provided the job function is pure up to domain-safe shared state
    (the telemetry sink and the simulation cache both are). *)

type t

(** [create ~jobs ()] spawns [jobs] worker domains; [jobs = 0] means
    [Domain.recommended_domain_count ()] and negative counts raise
    [Invalid_argument].  [queue_capacity] bounds the number of
    submitted-but-unstarted jobs (default 128). *)
val create : ?queue_capacity:int -> jobs:int -> unit -> t

(** The resolved worker count (>= 1). *)
val jobs : t -> int

(** [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Parallel [List.map] with deterministic (input-order) results.  If a
    job raises, the first exception by input position is re-raised in
    the caller after all jobs finish.  A one-element list runs on the
    calling domain, exactly as [List.map] would.  Call only from the
    domain that created the pool. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Drain remaining jobs and join the worker domains.  Idempotent. *)
val shutdown : t -> unit

(** [run ~jobs f xs]: create, {!map}, {!shutdown} — with cleanup on
    exceptions.  [jobs] defaults to the recommended domain count. *)
val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
