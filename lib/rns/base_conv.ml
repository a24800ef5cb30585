(* Fast (approximate) RNS base conversion — paper §2.

   Given x in coefficient representation over basis Q = {q_0..q_{l-1}},
   the converted limb over p_k is

     y_{p_k} = sum_j ( [x_{q_j} * (Q/q_j)^{-1}]_{q_j} * (Q/q_j) ) mod p_k

   which equals x + e*Q for a small non-negative integer e < l (the
   standard "approximate" base conversion of Bajard et al. / HPS; the
   slack is absorbed by mod-down scaling and CKKS noise).  This is the
   operation the paper's base conversion unit (BCU) implements: limbs
   are NOT data parallel here — every input limb contributes to every
   output limb, which is exactly the cross-limb dependency that makes
   keyswitching hard to parallelize.

   The stage-2 inner loop uses lazy-reduction accumulation, mirroring
   the paper's BCU which amortizes reductions across limbs: each term
   v * f is at most (2^30-1)^2 < 2^60, so several terms fit in the
   63-bit native int before a single reduction.  The exact batch size
   is precomputed per destination modulus (at least 4 at 30-bit
   moduli, ~16+ at the paper's 28-bit datapath).

   Tables are cached per (Q, P) pair of prime-value lists in a Memo
   table (safe under concurrent domains), reusing the CRT constants
   from [Crt]. *)

(* Same-unit bigarray accessors: dune's dev profile compiles with
   -opaque, so the [@inline] wrappers in Limb_buf are not inlined
   across modules — these local twins are (see Ntt). *)
let[@inline always] bget (a : Limb_buf.t) i = Int64.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline always] bset (a : Limb_buf.t) i v = Bigarray.Array1.unsafe_set a i (Int64.of_int v)

type table = {
  src : Basis.t;
  dst : Basis.t;
  qhat_inv : int array; (* (Q/q_j)^-1 mod q_j *)
  qhat_mod_p : int array array; (* [k].[j] = Q/q_j mod p_k *)
  reduce_src : bool array array; (* [k].[j]: q_j >= p_k, residue needs a pre-reduction *)
  reduce_all : bool array; (* every source pre-reduced: the fallback for wide share sums *)
  batch : int array; (* [k]: accumulation terms per lazy reduction *)
}

let tables : (int list * int list, table) Cinnamon_util.Memo.t =
  Cinnamon_util.Memo.create ~size:32 ()

let make_table ~src ~dst =
  let module B = Cinnamon_util.Bigint in
  let c = Crt.consts src in
  let l = Basis.size src in
  let m = Basis.size dst in
  let qhat_mod_p =
    Array.init m (fun k ->
        let pk = Basis.value dst k in
        Array.init l (fun j -> B.rem_small (Crt.qhat c j) pk))
  in
  let reduce_src =
    Array.init m (fun k ->
        let pk = Basis.value dst k in
        Array.init l (fun j -> Basis.value src j >= pk))
  in
  (* Lazy-reduction batch for destination p_k: each accumulated term is
     v * f with f <= p_k - 1 and v bounded by the source residue after
     the optional pre-reduction, so [batch] terms stay below max_int
     (the running sum is < p_k + (batch-1)*bound <= batch*bound right
     before each reduction). *)
  let batch =
    Array.init m (fun k ->
        let pk = Basis.value dst k in
        let vmax =
          Array.fold_left
            (fun acc j ->
              let qj = Basis.value src j in
              max acc (if qj >= pk then pk - 1 else qj - 1))
            1
            (Array.init l (fun j -> j))
        in
        let bound = vmax * (pk - 1) in
        max 1 (max_int / max 1 bound))
  in
  {
    src;
    dst;
    qhat_inv = Array.init l (Crt.qhat_inv c);
    qhat_mod_p;
    reduce_src;
    reduce_all = Array.make l true;
    batch;
  }

let table ~src ~dst =
  let key = (Basis.to_list src, Basis.to_list dst) in
  Cinnamon_util.Memo.get tables key (fun () -> make_table ~src ~dst)

(* Stage 1 (paper's BCU stage 1): scale input limb j by qhat_inv into
   an arena buffer. *)
let scale_limb tbl x ~j ~(buf : Limb_buf.t) =
  let n = Rns_poly.n x in
  let { Modarith.q; mu; shift } = Basis.modulus tbl.src j in
  let sh1 = (shift / 2) - 1 and sh2 = (shift / 2) + 1 in
  let s = tbl.qhat_inv.(j) in
  let src_limb = Rns_poly.unsafe_limb_view x j in
  for i = 0 to n - 1 do
    let p = bget src_limb i * s in
    let r = p - (((p lsr sh1) * mu) lsr sh2) * q in
    let r = if r >= q then r - q else r in
    bset buf i (if r >= q then r - q else r)
  done

(* Stage 2: lazy-reduction multiply-accumulate of every scaled source
   limb into output column k.  Source residues can exceed the
   destination modulus (e.g. 30-bit special primes feeding 26-bit
   scale primes) — those get one pre-reduction so every term respects
   the batch bound computed in [make_table].

   The view form is the fused-keyswitch entry point: the caller hands
   the destination limb directly, so a single column can be produced
   into a cache-resident scratch tile without materializing the whole
   destination polynomial.  The coefficient loop is unrolled by two
   (ring dimensions are powers of two >= 2); both lanes follow the
   same reduction trajectory, so the result is bitwise the scalar
   sequence's.

   With [shares] = S > 1 each source value is an integer sum of S
   canonical residues (< S·q_j): terms grow S-fold, so the batch
   shrinks to batch / S.  Where that falls below one term, every
   source is pre-reduced instead, which bounds each term by
   (p_k - 1)^2 whatever S is.  The column is the same residue mod p_k
   either way: bitwise the sum mod p_k of the S per-share columns. *)
let accumulate_column_into ?(shares = 1) tbl ~(scaled : Limb_buf.t array) ~(dst : Limb_buf.t) ~k
    =
  let n = Limb_buf.length dst in
  let l = Array.length scaled in
  let qk = Basis.value tbl.dst k in
  let factors = tbl.qhat_mod_p.(k) in
  let batch = tbl.batch.(k) / shares in
  let reduce_src, batch =
    if batch >= 1 then (tbl.reduce_src.(k), batch)
    else (tbl.reduce_all, Fused_mac.terms_per_reduction ~q:qk)
  in
  let i = ref 0 in
  while !i < n - 1 do
    let i0 = !i in
    let acc0 = ref 0 and acc1 = ref 0 and cnt = ref 0 in
    for j = 0 to l - 1 do
      let src = Array.unsafe_get scaled j in
      let f = Array.unsafe_get factors j in
      let v0 = bget src i0 and v1 = bget src (i0 + 1) in
      let v0, v1 =
        if Array.unsafe_get reduce_src j then (v0 mod qk, v1 mod qk) else (v0, v1)
      in
      acc0 := !acc0 + (v0 * f);
      acc1 := !acc1 + (v1 * f);
      incr cnt;
      if !cnt >= batch then begin
        acc0 := !acc0 mod qk;
        acc1 := !acc1 mod qk;
        cnt := 1 (* the reduced sum counts as one live term *)
      end
    done;
    bset dst i0 (!acc0 mod qk);
    bset dst (i0 + 1) (!acc1 mod qk);
    i := i0 + 2
  done;
  if !i < n then begin
    let i0 = !i in
    let acc = ref 0 and cnt = ref 0 in
    for j = 0 to l - 1 do
      let v0 = bget (Array.unsafe_get scaled j) i0 in
      let v = if Array.unsafe_get reduce_src j then v0 mod qk else v0 in
      acc := !acc + (v * Array.unsafe_get factors j);
      incr cnt;
      if !cnt >= batch then begin
        acc := !acc mod qk;
        cnt := 1
      end
    done;
    bset dst i0 (!acc mod qk)
  end

(* Stage-1 scale factor (Q/q_j)^-1 mod q_j, for callers that fuse the
   scaling elsewhere (the fused keyswitch folds it into the INTT). *)
let qhat_inv tbl j = tbl.qhat_inv.(j)

(* Convert x (Coeff domain, over [src]) to basis [dst] (Coeff domain).
   Output = x + e*Q with 0 <= e < size(src). *)
let convert x ~dst =
  if Rns_poly.domain x <> Rns_poly.Coeff then
    invalid_arg "Base_conv.convert: input must be in coefficient domain";
  let src = Rns_poly.basis x in
  let tbl = table ~src ~dst in
  let n = Rns_poly.n x in
  let l = Basis.size src in
  Scratch.with_bufs ~n ~count:l (fun scaled ->
      let out = Rns_poly.create ~n ~basis:dst ~domain:Rns_poly.Coeff in
      for j = 0 to l - 1 do
        scale_limb tbl x ~j ~buf:scaled.(j)
      done;
      for k = 0 to Basis.size dst - 1 do
        accumulate_column_into tbl ~scaled ~dst:(Rns_poly.unsafe_limb_view out k) ~k
      done;
      out)
