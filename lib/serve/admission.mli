(** Bounded admission queue with backpressure and typed rejection,
    kept in dispatch order (priority class, then FIFO within a
    class).  Every failure to serve is a value: admission returns
    [error], and {!shed_expired} hands back the requests it removed. *)

type error =
  | Queue_full of { capacity : int }  (** backpressure: queue at capacity *)
  | Expired of { deadline_s : float; now_s : float }
      (** the deadline had already passed on arrival *)
  | Closed  (** the server is draining; no new admissions *)
  | Fleet_full
      (** the fleet had no active node to offer the request to (a full
          or closed node refuses with its own reason); never produced
          by a single queue's {!admit} *)
  | Tenant_unavailable of { tenant : Cinnamon_tenant.Tenant_id.t; reason : string }
      (** the tenant key store refused to lease keys for this request
          (retired tenant, destroyed epoch); produced by the fleet's
          tenancy layer, never by a single queue's {!admit} *)

val error_to_string : error -> string

type t

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> t

val capacity : t -> int
val depth : t -> int
val is_empty : t -> bool

(** Stop admitting (graceful drain); queued requests stay queued. *)
val close : t -> unit

val is_closed : t -> bool

val admit : t -> now_s:float -> Request.t -> (unit, error) result

(** Remove and return every queued request whose deadline lies strictly
    before [now_s].  When none has expired the queue is left physically
    as it was and nothing is allocated. *)
val shed_expired : t -> now_s:float -> Request.t list

(** The queued requests in dispatch order (the queue's own list). *)
val queued : t -> Request.t list

(** Highest-priority, oldest queued request. *)
val peek : t -> Request.t option

(** [take t pred ~limit] removes and returns (in queue order) up to
    [limit] requests satisfying [pred]. *)
val take : t -> (Request.t -> bool) -> limit:int -> Request.t list
