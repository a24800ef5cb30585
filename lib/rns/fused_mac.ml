(* Limb-level kernels of the fused keyswitch pipeline.

   The hybrid-keyswitch inner product accumulates, per output limb,
   sum over digits d of  ext_d * key_d  for two keys (b, a) at once.
   The classic formulation reduces every product canonically and adds
   with a conditional subtract — three reduced passes per digit per
   key.  These kernels instead carry the accumulation LAZILY across
   all dnum digits: each term is a raw product of canonical residues
   (< (q-1)^2 < 2^60 at the 30-bit cap), several of which fit in
   OCaml's 63-bit native int, so each accumulator limb is reduced once
   at kernel exit (or every [terms_per_reduction] digits when dnum
   exceeds the headroom — see the bound arithmetic in DESIGN.md,
   "Fused keyswitch pipeline").

   All kernels take an explicit [lo, hi) coefficient range so the
   caller can tile the digit loop: with the accumulator tile resident
   in cache, dnum digits of MAC touch DRAM once per accumulator
   element instead of once per digit.

   Like the other hot modules, local bget/bset twins inline under the
   dev profile's -opaque. *)

let[@inline always] bget (a : Limb_buf.t) i = Int64.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline always] bset (a : Limb_buf.t) i v = Bigarray.Array1.unsafe_set a i (Int64.of_int v)

(* How many raw products of canonical residues mod q fit in a native
   int on top of one already-reduced live term: the running sum right
   before a reduction is at most q - 1 + k*(q-1)^2 <= (k+1)*(q-1)^2,
   so k+1 = max_int / (q-1)^2 terms are safe between reductions.  At
   the 30-bit modulus cap this is 4; at the paper's 28-bit datapath,
   64 — every preset's dnum fits without interior reductions. *)
let terms_per_reduction ~q =
  let bound = (q - 1) * (q - 1) in
  max 1 (max_int / max 1 bound)

(* acc0.(j) += x.(xj)*b.(j), acc1.(j) += x.(xj)*a.(j): one read of x
   feeds both accumulators (the (k0, k1) pair of the keyswitch inner
   product).  No reduction — the caller tracks the live-term count. *)
let[@inline always] mac2_step ~x ~b ~a ~acc0 ~acc1 xj j =
  let xv = bget x xj in
  bset acc0 j (bget acc0 j + (xv * bget b j));
  bset acc1 j (bget acc1 j + (xv * bget a j))

(* The MAC over [lo, hi), unrolled by two. *)
let mac2_range ~(x : Limb_buf.t) ~(b : Limb_buf.t) ~(a : Limb_buf.t) ~(acc0 : Limb_buf.t)
    ~(acc1 : Limb_buf.t) ~lo ~hi =
  let j = ref lo in
  while !j < hi - 1 do
    let j0 = !j in
    mac2_step ~x ~b ~a ~acc0 ~acc1 j0 j0;
    mac2_step ~x ~b ~a ~acc0 ~acc1 (j0 + 1) (j0 + 1);
    j := j0 + 2
  done;
  if !j < hi then mac2_step ~x ~b ~a ~acc0 ~acc1 !j !j

(* Same MAC, reading x through a slot permutation: the hoisted-rotation
   path applies the Galois automorphism and the key multiply in one
   pass instead of materializing the permuted limb. *)
let mac2_perm_range ~(perm : int array) ~(x : Limb_buf.t) ~(b : Limb_buf.t) ~(a : Limb_buf.t)
    ~(acc0 : Limb_buf.t) ~(acc1 : Limb_buf.t) ~lo ~hi =
  for j = lo to hi - 1 do
    mac2_step ~x ~b ~a ~acc0 ~acc1 (Array.unsafe_get perm j) j
  done

(* Reduce both lazy accumulators at j to canonical residues.  Machine
   `mod` rather than Barrett: the sums reach ~2^62, past the Barrett
   pre-condition at 30-bit moduli, and the division amortizes over the
   whole digit loop. *)
let[@inline always] reduce2_step ~q ~acc0 ~acc1 j =
  bset acc0 j (bget acc0 j mod q);
  bset acc1 j (bget acc1 j mod q)

let reduce2_range ~q ~(acc0 : Limb_buf.t) ~(acc1 : Limb_buf.t) ~lo ~hi =
  let j = ref lo in
  while !j < hi - 1 do
    let j0 = !j in
    reduce2_step ~q ~acc0 ~acc1 j0;
    reduce2_step ~q ~acc0 ~acc1 (j0 + 1);
    j := j0 + 2
  done;
  if !j < hi then reduce2_step ~q ~acc0 ~acc1 !j

(* (x - y) * w mod q for canonical x, y — the mod-down epilogue
   (subtract the converted P-part, scale by P^-1) of one element.  [w]
   is fixed per limb, so it gets the Shoup treatment: w_sh = (w << 31)
   / q, the product lands in [0, 2q), one branchless correction. *)
let[@inline always] sub_mul_shoup ~q ~sh ~w ~w_sh xv yv =
  let d = xv - yv in
  let d = d + (q land (d asr 62)) in
  let r = (d * w) - (((d * w_sh) lsr sh) * q) - q in
  r + (q land (r asr 62))

(* dst = (x - y) * w mod q over [lo, hi), unrolled by two with both
   lanes' loads ahead of the stores: a store between them makes the
   second lane reload the buffers' data pointers (about 4% slower at
   N = 2^12).  dst may alias x. *)
let sub_mul_shoup_range ~q ~w ~w_sh ~(x : Limb_buf.t) ~(y : Limb_buf.t) ~(dst : Limb_buf.t) ~lo
    ~hi =
  let sh = Modarith.shoup_shift in
  let j = ref lo in
  while !j < hi - 1 do
    let j0 = !j in
    let x0 = bget x j0 and y0 = bget y j0 and x1 = bget x (j0 + 1) and y1 = bget y (j0 + 1) in
    bset dst j0 (sub_mul_shoup ~q ~sh ~w ~w_sh x0 y0);
    bset dst (j0 + 1) (sub_mul_shoup ~q ~sh ~w ~w_sh x1 y1);
    j := j0 + 2
  done;
  if !j < hi then bset dst !j (sub_mul_shoup ~q ~sh ~w ~w_sh (bget x !j) (bget y !j))
