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

   Reduction strategy (Harvey-style): butterflies keep residues in a
   redundant representation instead of canonically reducing every
   output.  Twiddle products use Shoup constants (Modarith.shoup):
   v = x*w - (x*w' lsr 31)*q lies in [0, 2q) at the cost of two
   multiplies, a shift and a subtract.  When q < 2^29 the forward pass
   lets values drift up to < 4q and re-centers one butterfly input per
   visit with a single conditional subtract, folding the full
   reduction to [0, q) into the final t = 1 stage; at the full 30-bit
   modulus width the invariant tightens to < 2q so every product stays
   below 2^62.  The inverse keeps everything < 2q and reduces during
   the N^-1 scaling.  Corrections are branchless
   (r + (c land (r asr 62)) after r = x - c) — the butterfly loop is
   the hottest loop in the library and mispredicts would dominate.

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
(* Sequential forward.  The 4q-lazy variant is the benchmark path:
   unrolled by two (block length t is a power of two >= 2 in every
   non-final stage, so there is never a tail) with the final t = 1
   stage specialized to emit canonical residues. *)

let forward_seq plan (a : Limb_buf.t) =
  let n = plan.n in
  let q = Modarith.q plan.md in
  let q2 = q * 2 in
  let sh = Modarith.shoup_shift in
  let psi_br = plan.psi_br and psi_sh = plan.psi_sh in
  if plan.lazy4 then begin
    let t = ref n and m = ref 1 in
    while !m < n do
      t := !t / 2;
      let mm = !m in
      if 2 * mm >= n then
        (* final stage, t = 1: inputs < 4q, outputs canonical [0, q) *)
        for i = 0 to mm - 1 do
          let j = 2 * i in
          let w = Array.unsafe_get psi_br (mm + i) in
          let w' = Array.unsafe_get psi_sh (mm + i) in
          let u = bget a j in
          let u = let r = u - q2 in r + (q2 land (r asr 62)) in
          let x1 = bget a (j + 1) in
          let v = (x1 * w) - (((x1 * w') lsr sh) * q) in
          let s0 = u + v in
          let s0 = let r = s0 - q2 in r + (q2 land (r asr 62)) in
          let s0 = let r = s0 - q in r + (q land (r asr 62)) in
          bset a j s0;
          let d = u - v + q2 in
          let d = let r = d - q2 in r + (q2 land (r asr 62)) in
          let d = let r = d - q in r + (q land (r asr 62)) in
          bset a (j + 1) d
        done
      else begin
        let tt = !t in
        for i = 0 to mm - 1 do
          let w = Array.unsafe_get psi_br (mm + i) in
          let w' = Array.unsafe_get psi_sh (mm + i) in
          let j1 = 2 * i * tt in
          let stop = j1 + tt in
          let j = ref j1 in
          while !j < stop do
            let j0 = !j in
            let u = bget a j0 in
            let u = let r = u - q2 in r + (q2 land (r asr 62)) in
            let x1 = bget a (j0 + tt) in
            let v = (x1 * w) - (((x1 * w') lsr sh) * q) in
            bset a j0 (u + v);
            bset a (j0 + tt) (u - v + q2);
            let u = bget a (j0 + 1) in
            let u = let r = u - q2 in r + (q2 land (r asr 62)) in
            let x1 = bget a (j0 + 1 + tt) in
            let v = (x1 * w) - (((x1 * w') lsr sh) * q) in
            bset a (j0 + 1) (u + v);
            bset a (j0 + 1 + tt) (u - v + q2);
            j := j0 + 2
          done
        done
      end;
      m := mm * 2
    done
  end
  else begin
    (* full 30-bit moduli: keep every value < 2q *)
    let t = ref n and m = ref 1 in
    while !m < n do
      t := !t / 2;
      let mm = !m and tt = !t in
      let last = 2 * mm >= n in
      for i = 0 to mm - 1 do
        let w = Array.unsafe_get psi_br (mm + i) in
        let w' = Array.unsafe_get psi_sh (mm + i) in
        let j1 = 2 * i * tt in
        let j2 = j1 + tt - 1 in
        if last then
          for j = j1 to j2 do
            let u = bget a j in
            let x1 = bget a (j + tt) in
            let v = (x1 * w) - (((x1 * w') lsr sh) * q) in
            let s0 = u + v in
            let s0 = let r = s0 - q2 in r + (q2 land (r asr 62)) in
            let s0 = let r = s0 - q in r + (q land (r asr 62)) in
            bset a j s0;
            let d = u - v + q2 in
            let d = let r = d - q2 in r + (q2 land (r asr 62)) in
            let d = let r = d - q in r + (q land (r asr 62)) in
            bset a (j + tt) d
          done
        else
          for j = j1 to j2 do
            let u = bget a j in
            let x1 = bget a (j + tt) in
            let v = (x1 * w) - (((x1 * w') lsr sh) * q) in
            let s0 = u + v in
            let s0 = let r = s0 - q2 in r + (q2 land (r asr 62)) in
            bset a j s0;
            let d = u - v + q2 in
            let d = let r = d - q2 in r + (q2 land (r asr 62)) in
            bset a (j + tt) d
          done
      done;
      m := mm * 2
    done
  end

(* Final scaling of the inverse by an arbitrary canonical scalar
   (N^-1, or N^-1 fused with a caller factor); reduces < 2q values to
   [0, q).  Unrolled by two — n is a power of two >= 2 everywhere this
   runs, so there is never a tail. *)
let inv_scale_range_with plan (a : Limb_buf.t) ~ninv ~ninv_sh ~lo ~hi =
  let q = Modarith.q plan.md in
  let sh = Modarith.shoup_shift in
  let j = ref lo in
  while !j < hi - 1 do
    let j0 = !j in
    let x = bget a j0 in
    let v = (x * ninv) - (((x * ninv_sh) lsr sh) * q) in
    let v = let r = v - q in r + (q land (r asr 62)) in
    bset a j0 v;
    let x = bget a (j0 + 1) in
    let v = (x * ninv) - (((x * ninv_sh) lsr sh) * q) in
    let v = let r = v - q in r + (q land (r asr 62)) in
    bset a (j0 + 1) v;
    j := j0 + 2
  done;
  if !j < hi then begin
    let x = bget a !j in
    let v = (x * ninv) - (((x * ninv_sh) lsr sh) * q) in
    let v = let r = v - q in r + (q land (r asr 62)) in
    bset a !j v
  end

(* One inverse (Gentleman–Sande) stage with h blocks of stride t,
   mirroring the treatment the forward pass gets: the t = 1 stage
   iterates stride-2 pairs directly (unrolled across blocks), larger
   strides unroll the in-block loop by two (t is a power of two >= 2,
   so no tail).  The inverse keeps every value < 2q: the sum leg gets
   one conditional subtract, the difference leg exits through the
   Shoup product which lands in [0, 2q) by construction. *)
let inv_stage_seq plan (a : Limb_buf.t) ~h ~t =
  let q = Modarith.q plan.md in
  let q2 = q * 2 in
  let sh = Modarith.shoup_shift in
  let ipsi = plan.inv_psi_br and ipsh = plan.inv_psi_sh in
  let lazy4 = plan.lazy4 in
  if t = 1 then
    for i = 0 to h - 1 do
      let s = Array.unsafe_get ipsi (h + i) in
      let s' = Array.unsafe_get ipsh (h + i) in
      let j = 2 * i in
      let u = bget a j in
      let v = bget a (j + 1) in
      let su = u + v in
      let su = let r = su - q2 in r + (q2 land (r asr 62)) in
      bset a j su;
      let d = u - v + q2 in
      let d = if lazy4 then d else (let r = d - q2 in r + (q2 land (r asr 62))) in
      let x = (d * s) - (((d * s') lsr sh) * q) in
      bset a (j + 1) x
    done
  else
    for i = 0 to h - 1 do
      let s = Array.unsafe_get ipsi (h + i) in
      let s' = Array.unsafe_get ipsh (h + i) in
      let j1 = 2 * i * t in
      let stop = j1 + t in
      let j = ref j1 in
      if lazy4 then
        while !j < stop do
          let j0 = !j in
          let u = bget a j0 in
          let v = bget a (j0 + t) in
          let su = u + v in
          let su = let r = su - q2 in r + (q2 land (r asr 62)) in
          bset a j0 su;
          let d = u - v + q2 in
          let x = (d * s) - (((d * s') lsr sh) * q) in
          bset a (j0 + t) x;
          let u = bget a (j0 + 1) in
          let v = bget a (j0 + 1 + t) in
          let su = u + v in
          let su = let r = su - q2 in r + (q2 land (r asr 62)) in
          bset a (j0 + 1) su;
          let d = u - v + q2 in
          let x = (d * s) - (((d * s') lsr sh) * q) in
          bset a (j0 + 1 + t) x;
          j := j0 + 2
        done
      else
        while !j < stop do
          let j0 = !j in
          let u = bget a j0 in
          let v = bget a (j0 + t) in
          let su = u + v in
          let su = let r = su - q2 in r + (q2 land (r asr 62)) in
          bset a j0 su;
          let d = u - v + q2 in
          let d = let r = d - q2 in r + (q2 land (r asr 62)) in
          let x = (d * s) - (((d * s') lsr sh) * q) in
          bset a (j0 + t) x;
          let u = bget a (j0 + 1) in
          let v = bget a (j0 + 1 + t) in
          let su = u + v in
          let su = let r = su - q2 in r + (q2 land (r asr 62)) in
          bset a (j0 + 1) su;
          let d = u - v + q2 in
          let d = let r = d - q2 in r + (q2 land (r asr 62)) in
          let x = (d * s) - (((d * s') lsr sh) * q) in
          bset a (j0 + 1 + t) x;
          j := j0 + 2
        done
    done

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
