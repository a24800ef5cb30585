(** Minimal arbitrary-precision unsigned integers.

    Only used on cold paths: CRT reconstruction oracles in tests,
    modulus-product bookkeeping, and exact base-conversion references.
    The RNS hot path never touches this module. *)

type t

val zero : t
val one : t

(** Raises [Invalid_argument] on negative input. *)
val of_int : int -> t

(** [Some n] if the value fits in a native int. *)
val to_int_opt : t -> int option

val compare : t -> t -> int
val equal : t -> t -> bool
val add : t -> t -> t

(** [sub a b] with [a >= b]; raises otherwise. *)
val sub : t -> t -> t

(** Multiply by a non-negative native int. *)
val mul_small : t -> int -> t

val mul : t -> t -> t

(** [divmod_small a m] is [(a / m, a mod m)] for [0 < m < 2{^36}]. *)
val divmod_small : t -> int -> t * int

(** [rem_small a m] is [a mod m]. *)
val rem_small : t -> int -> int

(** Decimal parsing/printing. *)
val of_string : string -> t

val to_string : t -> string

(** Approximate float value (for magnitude displays). *)
val to_float : t -> float

(** Number of significant bits; [0] for zero. *)
val bit_length : t -> int

val pp : Format.formatter -> t -> unit
