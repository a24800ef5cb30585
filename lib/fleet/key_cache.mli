(** Per-node warm-key cache: which (tenant, epoch, program) key sets
    are resident in a node's HBM.  Typed entries, byte-weighted
    capacity, MRU list with LRU eviction — real key sets are multi-GB,
    so the resident list stays short.  An entry larger than the whole
    budget never becomes resident: every touch counts a (correctly
    accounted) miss. *)

type entry = {
  en_tenant : Cinnamon_tenant.Tenant_id.t;
  en_epoch : Cinnamon_tenant.Epoch.t;
  en_compat : string;  (** batch compatibility digest (program identity) *)
}

(** The entry a request's dispatch will look up: its tenant, its
    stamped epoch, and its batch compatibility key. *)
val entry_of_request : Cinnamon_serve.Request.t -> entry

val entry_equal : entry -> entry -> bool
val entry_to_string : entry -> string

type t

(** Raises [Invalid_argument] if [capacity_bytes < 1]. *)
val create : capacity_bytes:int -> t

(** Residency peek for routing: no promotion, no counters. *)
val mem : t -> entry -> bool

(** Dispatch-path lookup: promote on hit; on a miss, count [bytes]
    streamed in and evict LRU entries until the newcomer fits (or skip
    insertion entirely if it can never fit).  [true] iff already
    resident. *)
val touch : t -> entry -> bytes:int -> bool

val hits : t -> int
val misses : t -> int

(** Total bytes streamed in on misses (the HBM key-load traffic). *)
val loaded_bytes : t -> int

val evictions : t -> int

(** Resident entries, most recently used first. *)
val resident : t -> entry list
