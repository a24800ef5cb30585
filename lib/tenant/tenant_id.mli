(** Opaque tenant identity: the index type of the per-tenant key store.
    Distinct from node/request/epoch ints by construction. *)

type t

(** Raises [Invalid_argument] on a negative id. *)
val make : int -> t

(** The tenant of requests that name none; single-tenant serving runs
    every request as it. *)
val default : t

val to_int : t -> int

(** ["t<id>"] — used in batch compatibility keys and reports. *)
val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
