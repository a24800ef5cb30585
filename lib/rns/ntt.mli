(** Negacyclic NTT over Z{_q}[X]/(X{^N}+1) on {!Limb_buf} storage.

    Fused-psi formulation: pointwise products of transformed
    polynomials realize negacyclic convolution with no zero padding.
    Slot [j] of the forward transform holds the evaluation at
    psi{^2·br(j)+1} (br = bit reversal), which makes Galois
    automorphisms pure slot permutations in the Eval domain.

    Butterflies run in a Harvey-style redundant representation
    (values < 4q for q < 2{^29}, < 2q at the full 30-bit width) with
    Shoup twiddle products and a single final reduction.  Each
    transform runs sequentially on one domain; parallelism lives a
    level up, across limbs.  Twiddle tables and permutations are
    cached per (q, N) / (N, k) in mutex-guarded {!Cinnamon_util.Memo}
    tables, safe under concurrent domains. *)

type plan

(** Get (or build and cache) the transform plan for modulus [q] and
    power-of-two ring dimension [n]. [q] must be ≡ 1 (mod 2n). *)
val plan : q:int -> n:int -> plan

val plan_modulus : plan -> Modarith.modulus

(** Forward transform of [src] into [dst] (natural-order input and
    output, canonical [0, q) residues both ways).  [dst] may be the
    same buffer as [src]; distinct overlapping views are not allowed. *)
val forward_into : plan -> src:Limb_buf.t -> dst:Limb_buf.t -> unit

(** Inverse transform, including the N{^-1} scaling; same aliasing
    contract as {!forward_into}. *)
val inverse_into : plan -> src:Limb_buf.t -> dst:Limb_buf.t -> unit

(** Inverse transform whose final pass multiplies by N{^-1}·[scale] in
    one fused Shoup product ([scale] a canonical residue) — bitwise
    equal to {!inverse_into} followed by a canonical multiply by
    [scale].  The fused keyswitch pipeline uses it to fold base
    conversion's stage-1 q̂{^-1} factor into the transform epilogue,
    saving one full pass over the limb. *)
val inverse_scaled_into : plan -> scale:int -> src:Limb_buf.t -> dst:Limb_buf.t -> unit

(** Eval-domain slot permutation for the Galois automorphism
    X ↦ X{^k} ([k] odd, taken mod 2N): [out.(j) = in.(nth perm j)]
    applied to every Eval-domain limb equals the Coeff-domain
    automorphism conjugated through the transform, bitwise.  Cached
    per (n, k). *)
type perm

val galois_perm : n:int -> k:int -> perm

(** Source slot feeding output slot [j]. *)
val perm_nth : perm -> int -> int

(** The permutation as its raw index array, for kernels that read
    through it inside hot loops.  Callers must not mutate it. *)
val perm_array : perm -> int array

(** [dst.(j) <- src.(nth perm j)] for all [j]; [src] and [dst] must
    not overlap. *)
val apply_perm_into : perm -> src:Limb_buf.t -> dst:Limb_buf.t -> unit
