(* Negacyclic Number Theoretic Transform over Z_q[X]/(X^N + 1), on
   flat Limb_buf storage.

   We use the standard fused-psi formulation: with psi a primitive
   2N-th root of unity mod q, the forward transform is a Cooley–Tukey
   decimation-in-time FFT whose twiddles are powers of psi stored in
   bit-reversed order; the inverse is a Gentleman–Sande
   decimation-in-frequency pass followed by multiplication by N^-1.
   Point-wise products of transformed polynomials then realize
   negacyclic convolution directly, with no zero-padding.

   Output slot order: with br the log2(N)-bit reversal, slot j of the
   forward transform holds the evaluation of the polynomial at
   psi^(2*br(j) + 1).  This is what makes the Eval-domain Galois
   permutation below a pure index shuffle.

   Butterflies keep residues in a redundant representation; the bounds
   are stated beside the arithmetic helpers below.

   Tables are computed once per (q, N) and cached; the caches are
   Memo tables because plans are built lazily from concurrent domains
   (lib/exec pool). *)

(* Local bigarray accessors for the butterfly loops.  Limb_buf exposes
   identical [@inline] wrappers, but dune's dev profile compiles with
   -opaque, which disables cross-module inlining — a call per memory
   access in the hottest loop of the library.  Same-unit definitions
   inline under every build profile. *)
let[@inline always] bget (a : Limb_buf.t) i = Int64.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline always] bset (a : Limb_buf.t) i v = Bigarray.Array1.unsafe_set a i (Int64.of_int v)

type plan = {
  md : Modarith.modulus;
  n : int;
  psi_br : int array; (* powers of psi in bit-reversed order, length n *)
  psi_sh : int array; (* Shoup constants for psi_br *)
  inv_psi_br : int array; (* powers of psi^-1 in bit-reversed order *)
  inv_psi_sh : int array; (* Shoup constants for inv_psi_br *)
  n_inv : int; (* N^-1 mod q *)
  n_inv_sh : int; (* Shoup constant for n_inv *)
  lazy4 : bool; (* 4q < 2^31: forward may hold values < 4q *)
}

let plans : (int * int, plan) Cinnamon_util.Memo.t = Cinnamon_util.Memo.create ~size:64 ()

let make_plan ~q ~n =
  let md = Modarith.modulus q in
  let psi = Prime_gen.primitive_root_2n ~q ~n in
  let inv_psi = Modarith.inv md psi in
  let powers root =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Modarith.mul md a.(i - 1) root
    done;
    a
  in
  let bits = Cinnamon_util.Bitops.log2_exact n in
  let reorder a = Array.init n (fun i -> a.(Cinnamon_util.Bitops.bit_reverse i ~bits)) in
  let psi_br = reorder (powers psi) in
  let inv_psi_br = reorder (powers inv_psi) in
  let n_inv = Modarith.inv md n in
  {
    md;
    n;
    psi_br;
    psi_sh = Array.map (Modarith.shoup md) psi_br;
    inv_psi_br;
    inv_psi_sh = Array.map (Modarith.shoup md) inv_psi_br;
    n_inv;
    n_inv_sh = Modarith.shoup md n_inv;
    lazy4 = 4 * q < 1 lsl 31;
  }

let plan ~q ~n =
  if not (Cinnamon_util.Bitops.is_pow2 n) then invalid_arg "Ntt.plan: N not a power of 2";
  Cinnamon_util.Memo.get plans (q, n) (fun () -> make_plan ~q ~n)

let plan_modulus plan = plan.md

(* ------------------------------------------------------------------ *)
(* Butterfly arithmetic (Harvey-style lazy reduction).

   Butterflies keep residues in a redundant representation instead of
   reducing every output canonically:
   - forward, q < 2^29 (lazy4): values stay < 4q.  Each butterfly
     re-centers its first input below 2q with one conditional
     subtract, and the outputs u + v and u - v + 2q are left < 4q;
   - forward at 29..30 bits: values stay < 2q, so every product stays
     below 2^62.  Each output gets one conditional subtract of 2q;
   - inverse: values stay < 2q.  The sum gets one conditional
     subtract, the difference leaves through the twiddle product.  At
     29..30 bits the difference (< 4q) is folded below 2q first;
   - on exit every public entry point writes canonical [0, q): the
     last forward stage and the N^-1 scaling correct fully.

   The helpers are top-level [@inline always] definitions in this unit,
   like bget/bset: a local closure (a [let step j = ...] inside a
   kernel) is not inlined and allocates on every call.  Flags are
   literal at every call site, so each inlined copy keeps only its own
   corrections, and the lazy4 / last-stage tests stay outside the
   butterfly loops.  Corrections are branchless: the butterfly loop is
   the hottest loop in the library and mispredicts would dominate. *)

(* x - c if x >= c, else x; for 0 <= x < 2c. *)
let[@inline always] csub x c =
  let r = x - c in
  r + (c land (r asr 62))

(* Shoup product (Modarith.shoup): x*w mod q, landing in [0, 2q), for
   x < 4q with w' the Shoup constant of w. *)
let[@inline always] shoup ~sh ~q x w w' = (x * w) - (((x * w') lsr sh) * q)

(* [corr] conditional subtracts of an x < 4q: 0 leaves it < 4q, 1
   folds it below 2q, 2 makes it canonical. *)
let[@inline always] correct ~corr ~q ~q2 x =
  if corr = 0 then x else if corr = 1 then csub x q2 else csub (csub x q2) q

(* Cooley–Tukey butterfly on slots (j, j + t) with twiddle (w, w'):
   (u, x) -> (u + x*w, u - x*w).  [fold] re-centers u below 2q first
   (the lazy4 inputs); each output then gets [corr] corrections. *)
let[@inline always] ct ~fold ~corr ~q ~q2 ~sh a ~w ~w' j t =
  let u = bget a j in
  let u = if fold then csub u q2 else u in
  let v = shoup ~sh ~q (bget a (j + t)) w w' in
  bset a j (correct ~corr ~q ~q2 (u + v));
  bset a (j + t) (correct ~corr ~q ~q2 (u - v + q2))

(* Gentleman–Sande butterfly on slots (j, j + t) with twiddle (s, s'):
   (u, v) -> (u + v, (u - v)*s).  [fold] folds the difference below 2q
   before the product (the 29..30-bit moduli). *)
let[@inline always] gs ~fold ~q ~q2 ~sh a ~s ~s' j t =
  let u = bget a j and v = bget a (j + t) in
  bset a j (csub (u + v) q2);
  let d = u - v + q2 in
  let d = if fold then csub d q2 else d in
  bset a (j + t) (shoup ~sh ~q d s s')

(* The inverse's final scaling of slot j by a canonical scalar: < 2q
   in, canonical out. *)
let[@inline always] scale_step ~q ~sh a ~ninv ~ninv_sh j =
  bset a j (csub (shoup ~sh ~q (bget a j) ninv ninv_sh) q)

(* ------------------------------------------------------------------ *)
(* Stages.  A stage with block length t >= 2 unrolls its in-block loop
   by two (t is a power of two, so there is never a tail); the t = 1
   stage iterates the adjacent pairs of its blocks directly. *)

(* Forward stage with m blocks of length t >= 2. *)
let[@inline always] ct_stage ~fold ~corr plan a ~m ~t =
  let q = Modarith.q plan.md and sh = Modarith.shoup_shift in
  let q2 = q * 2 in
  for i = 0 to m - 1 do
    let w = Array.unsafe_get plan.psi_br (m + i) and w' = Array.unsafe_get plan.psi_sh (m + i) in
    let j1 = 2 * i * t in
    let j = ref j1 in
    while !j < j1 + t do
      let j0 = !j in
      ct ~fold ~corr ~q ~q2 ~sh a ~w ~w' j0 t;
      ct ~fold ~corr ~q ~q2 ~sh a ~w ~w' (j0 + 1) t;
      j := j0 + 2
    done
  done

(* The final forward stage (t = 1): outputs canonical. *)
let[@inline always] ct_last ~fold plan a ~m =
  let q = Modarith.q plan.md and sh = Modarith.shoup_shift in
  let q2 = q * 2 in
  for i = 0 to m - 1 do
    let w = Array.unsafe_get plan.psi_br (m + i) and w' = Array.unsafe_get plan.psi_sh (m + i) in
    ct ~fold ~corr:2 ~q ~q2 ~sh a ~w ~w' (2 * i) 1
  done

let forward_seq plan (a : Limb_buf.t) =
  let n = plan.n in
  let t = ref n and m = ref 1 in
  while !m < n do
    t := !t / 2;
    let m' = !m and t' = !t in
    (match (plan.lazy4, t') with
    | true, 1 -> ct_last ~fold:true plan a ~m:m'
    | false, 1 -> ct_last ~fold:false plan a ~m:m'
    | true, _ -> ct_stage ~fold:true ~corr:0 plan a ~m:m' ~t:t'
    | false, _ -> ct_stage ~fold:false ~corr:1 plan a ~m:m' ~t:t');
    m := m' * 2
  done

(* Final scaling of the inverse by an arbitrary canonical scalar
   (N^-1, or N^-1 fused with a caller factor), unrolled by two. *)
let inv_scale_range_with plan (a : Limb_buf.t) ~ninv ~ninv_sh ~lo ~hi =
  let q = Modarith.q plan.md and sh = Modarith.shoup_shift in
  let j = ref lo in
  while !j < hi - 1 do
    let j0 = !j in
    scale_step ~q ~sh a ~ninv ~ninv_sh j0;
    scale_step ~q ~sh a ~ninv ~ninv_sh (j0 + 1);
    j := j0 + 2
  done;
  if !j < hi then scale_step ~q ~sh a ~ninv ~ninv_sh !j

(* Inverse stage with h blocks of length t >= 2. *)
let[@inline always] gs_stage ~fold plan a ~h ~t =
  let q = Modarith.q plan.md and sh = Modarith.shoup_shift in
  let q2 = q * 2 in
  for i = 0 to h - 1 do
    let s = Array.unsafe_get plan.inv_psi_br (h + i) in
    let s' = Array.unsafe_get plan.inv_psi_sh (h + i) in
    let j1 = 2 * i * t in
    let j = ref j1 in
    while !j < j1 + t do
      let j0 = !j in
      gs ~fold ~q ~q2 ~sh a ~s ~s' j0 t;
      gs ~fold ~q ~q2 ~sh a ~s ~s' (j0 + 1) t;
      j := j0 + 2
    done
  done

(* The first inverse stage (t = 1). *)
let[@inline always] gs_first ~fold plan a ~h =
  let q = Modarith.q plan.md and sh = Modarith.shoup_shift in
  let q2 = q * 2 in
  for i = 0 to h - 1 do
    let s = Array.unsafe_get plan.inv_psi_br (h + i) in
    let s' = Array.unsafe_get plan.inv_psi_sh (h + i) in
    gs ~fold ~q ~q2 ~sh a ~s ~s' (2 * i) 1
  done

(* One inverse stage with h blocks of length t. *)
let inv_stage_seq plan (a : Limb_buf.t) ~h ~t =
  match (plan.lazy4, t) with
  | true, 1 -> gs_first ~fold:false plan a ~h
  | false, 1 -> gs_first ~fold:true plan a ~h
  | true, _ -> gs_stage ~fold:false plan a ~h ~t
  | false, _ -> gs_stage ~fold:true plan a ~h ~t

let inverse_seq_scaled plan (a : Limb_buf.t) ~ninv ~ninv_sh =
  let n = plan.n in
  let m = ref n and t = ref 1 in
  while !m > 1 do
    let h = !m / 2 in
    inv_stage_seq plan a ~h ~t:!t;
    t := !t * 2;
    m := h
  done;
  inv_scale_range_with plan a ~ninv ~ninv_sh ~lo:0 ~hi:n

(* ------------------------------------------------------------------ *)

let check_into name plan ~src ~dst =
  if Limb_buf.length src <> plan.n || Limb_buf.length dst <> plan.n then
    invalid_arg (name ^ ": length")

let forward_into plan ~src ~dst =
  check_into "Ntt.forward_into" plan ~src ~dst;
  Limb_buf.blit ~src ~dst;
  forward_seq plan dst

let inverse_into plan ~src ~dst =
  check_into "Ntt.inverse_into" plan ~src ~dst;
  Limb_buf.blit ~src ~dst;
  inverse_seq_scaled plan dst ~ninv:plan.n_inv ~ninv_sh:plan.n_inv_sh

(* Inverse transform whose final pass multiplies by N^-1 * scale in one
   Shoup product — the INTT -> scale-by-constant fusion the fused
   keyswitch pipeline uses to fold base conversion's stage-1 qhat^-1
   factor into the transform epilogue.  Output is bitwise what
   [inverse_into] followed by a canonical multiply by [scale] would
   produce: both are the canonical residue of x * N^-1 * scale. *)
let inverse_scaled_into plan ~scale ~src ~dst =
  check_into "Ntt.inverse_scaled_into" plan ~src ~dst;
  let md = plan.md in
  if scale < 0 || scale >= Modarith.q md then
    invalid_arg "Ntt.inverse_scaled_into: scale not a canonical residue";
  let ninv = Modarith.mul md plan.n_inv scale in
  let ninv_sh = Modarith.shoup md ninv in
  Limb_buf.blit ~src ~dst;
  inverse_seq_scaled plan dst ~ninv ~ninv_sh

(* Eval-domain Galois permutation for the automorphism tau_k : X -> X^k
   (k odd, taken mod 2N).

   Slot j of the forward transform holds the evaluation at
   psi^(2*br(j)+1).  Since (tau_k f)(psi^e) = f(psi^(e*k mod 2N)) and
   e*k mod 2N is again odd, applying tau_k in the Eval domain moves the
   value stored at exponent e*k into the slot for exponent e:

     out.(j) = in.(perm.(j))   with
     perm.(j) = br(((k * (2*br(j)+1)) mod 2N - 1) / 2)

   A pure index shuffle — no modular arithmetic, no sign flips — and
   bitwise-identical to conjugating through INTT/NTT (the Coeff-domain
   path stays available as the test oracle).  Permutations are cached
   per (n, k), like plans.  Exponents stay below 2^34 so the product
   k * (2*br(j)+1) never overflows. *)

type perm = int array

let galois_perms : (int * int, int array) Cinnamon_util.Memo.t =
  Cinnamon_util.Memo.create ~size:64 ()

let galois_perm ~n ~k : perm =
  if not (Cinnamon_util.Bitops.is_pow2 n) then invalid_arg "Ntt.galois_perm: N not a power of 2";
  let two_n = 2 * n in
  let k = ((k mod two_n) + two_n) mod two_n in
  if k land 1 = 0 then invalid_arg "Ntt.galois_perm: k must be odd";
  Cinnamon_util.Memo.get galois_perms (n, k) (fun () ->
      let bits = Cinnamon_util.Bitops.log2_exact n in
      Array.init n (fun j ->
          let e = (2 * Cinnamon_util.Bitops.bit_reverse j ~bits) + 1 in
          let e' = e * k mod two_n in
          Cinnamon_util.Bitops.bit_reverse ((e' - 1) / 2) ~bits))

let perm_nth (p : perm) j = p.(j)

(* The permutation as its raw index array, for kernels that read
   through it in hot loops (cross-module [perm_nth] calls are not
   inlined in the dev profile).  Callers must not mutate it. *)
let perm_array (p : perm) : int array = p

let apply_perm_into (p : perm) ~src ~dst =
  let n = Array.length p in
  if Limb_buf.length src <> n || Limb_buf.length dst <> n then
    invalid_arg "Ntt.apply_perm_into: length";
  for j = 0 to n - 1 do
    bset dst j (bget src (Array.unsafe_get p j))
  done
