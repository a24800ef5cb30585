(** Word-sized modular arithmetic with Barrett reduction.

    All RNS moduli are at most 30 bits (the paper uses a 28-bit
    datapath), so residue products fit in OCaml's native 63-bit int and
    no big-integer arithmetic is ever needed on the hot path. *)

(** A modulus with its Barrett constants: [mu = floor(2{^shift} / q)]
    and [shift = 2·bits(q)].  Hot loops read the fields and inline the
    reduction
    [x - ((x lsr (shift/2 - 1)) * mu lsr (shift/2 + 1)) * q], followed
    by at most two conditional subtractions of [q], which reduces any
    [x < q²]. *)
type modulus = private { q : int; shift : int; mu : int }

(** Largest supported modulus width in bits. *)
val max_modulus_bits : int

(** Precompute Barrett constants for a modulus [3 <= q < 2{^30}].
    Moduli are assumed prime by [inv]. *)
val modulus : int -> modulus

(** The underlying modulus value. *)
val q : modulus -> int

(** Barrett-reduce a value in [0, q²). *)
val reduce : modulus -> int -> int

(** Shift used by {!shoup} constants (31). *)
val shoup_shift : int

(** Shoup constant [w' = floor(w·2{^31} / q)] for a fixed multiplicand
    [w < q].  Callers inline
    [x*w - ((x*w') lsr shoup_shift) * q ∈ \[0, 2q)] into hot loops;
    the products stay below 2{^62} for any [x < 4q] when [q < 2{^29}]
    (and for [x < 2q] at the full 30-bit width). *)
val shoup : modulus -> int -> int

val add : modulus -> int -> int -> int
val sub : modulus -> int -> int -> int
val neg : modulus -> int -> int
val mul : modulus -> int -> int -> int

(** Modular exponentiation; [e >= 0]. *)
val pow : modulus -> int -> int -> int

(** Modular inverse via Fermat's little theorem (prime moduli only).
    Raises on zero. *)
val inv : modulus -> int -> int

(** Canonical residue of a possibly negative int. *)
val of_int : modulus -> int -> int

(** Centered representative in (-q/2, q/2]. *)
val to_centered : modulus -> int -> int

val pp : Format.formatter -> modulus -> unit
