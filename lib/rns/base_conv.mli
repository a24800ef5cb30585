(** Fast (approximate) RNS base conversion — paper §2.

    The one polynomial operation that is {e not} data parallel across
    limbs: every input limb contributes to every output limb. This is
    the cross-limb dependency that makes keyswitching hard to
    parallelize and that the paper's BCU accelerates. *)

(** {2 Table / column layer}

    The fused keyswitch pipeline drives conversion column-by-column on
    raw {!Limb_buf} views instead of whole polynomials: it fetches the
    memoized conversion table once, folds the stage-1 q̂{^-1} scaling
    into its INTTs ({!Ntt.inverse_scaled_into}), and produces exactly
    the destination columns it is about to consume into cache-resident
    scratch tiles. *)

type table

(** Get (or build and cache) the conversion table from basis [src] to
    basis [dst]; memoized per prime-value pair, shared with
    {!convert}. *)
val table : src:Basis.t -> dst:Basis.t -> table

(** Stage-1 scale factor (Q/q{_j}){^-1} mod q{_j} of source limb [j]. *)
val qhat_inv : table -> int -> int

(** Accumulate destination column [k] from the stage-1-scaled source
    limbs into [dst] (length = ring dimension).  [scaled.(j)] must hold
    the canonical residues of limb [j] already multiplied by
    {!qhat_inv}[ j].  Lazy-reduction batched and unrolled; bitwise the
    column {!convert} computes.

    With [shares] = S (default 1), [scaled.(j)] may instead hold
    integer sums of S such canonical values (each < S·q{_j}); the
    column is then bitwise the sum mod the destination prime of the S
    per-share columns.  The lazy batch shrinks S-fold, and every source
    is pre-reduced where that leaves less than one term. *)
val accumulate_column_into :
  ?shares:int -> table -> scaled:Limb_buf.t array -> dst:Limb_buf.t -> k:int -> unit

(** [convert x ~dst] base-converts [x] (which must be in coefficient
    domain) to basis [dst]. The result represents [x + e·Q] for some
    integer [0 <= e < level x] (standard approximate conversion; the
    slack is absorbed by mod-down scaling and CKKS noise). *)
val convert : Rns_poly.t -> dst:Basis.t -> Rns_poly.t
