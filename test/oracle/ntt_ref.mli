(** Textbook negacyclic NTT on boxed [int array]s — the reference the
    {!Cinnamon_rns.Ntt} kernels are pinned against, bit for bit.

    The twiddle tables are rebuilt from [(q, n)] on every call from the
    public {!Cinnamon_rns.Prime_gen.primitive_root_2n} (the same psi the
    kernel plan uses), and every butterfly reduces canonically with
    {!Cinnamon_rns.Modarith}: no lazy reduction, no Shoup products, no
    [Limb_buf].  The ring dimension is the array length, a power of
    two; [q] must be ≡ 1 (mod 2n). *)

(** Forward transform: natural-order input, slot [j] holds the
    evaluation at psi{^2·br(j)+1}. *)
val forward : q:int -> int array -> int array

(** Inverse transform, including the N{^-1} scaling. *)
val inverse : q:int -> int array -> int array

(** Quadratic schoolbook negacyclic product. *)
val negacyclic_mul_naive : Cinnamon_rns.Modarith.modulus -> int array -> int array -> int array
