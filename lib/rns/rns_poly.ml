(* RNS polynomials: an element of Z_Q[X]/(X^N+1) stored as limbs.

   Limb i is the residue polynomial mod the i-th prime of the basis
   (one column of Figure 2 in the paper).  Most operations are data
   parallel across limbs; base conversion (see Base_conv) is the
   exception.

   Storage is ONE contiguous Limb_buf of level*n elements per
   polynomial; limb i is the zero-copy view [i*n, (i+1)*n).  Kernels
   (Ntt, Base_conv) take those views directly, so limb data moves
   between operations without ever round-tripping through boxed
   arrays, and whole-polynomial copies/compares are single flat
   blits.  The views are cut once at construction — the [limbs] field
   is derived state over [buf], never separate storage.

   The representation domain is tracked explicitly: Eval (NTT/
   evaluation domain, the default for arithmetic) or Coeff (coefficient
   domain, required by base conversion).  Mixing domains is a
   programming error and raises.

   Limb arithmetic is written as specialized first-order loops with
   one up-front shape check per operation and unsafe accesses inside.
   Every binary operation has an into-buffer variant ([add_into] etc.);
   the allocating form is create + into. *)

(* Same-unit bigarray accessors: dune's dev profile compiles with
   -opaque, so the [@inline] wrappers in Limb_buf are not inlined
   across modules — these local twins are (see Ntt). *)
let[@inline always] bget (a : Limb_buf.t) i = Int64.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline always] bset (a : Limb_buf.t) i v = Bigarray.Array1.unsafe_set a i (Int64.of_int v)

(* x - q if x >= q, else x; for 0 <= x < 2q.  Branchless: the limb
   loops stream random residues, where a branch mispredicts half the
   time. *)
let[@inline always] csub x q =
  let r = x - q in
  r + (q land (r asr 62))

(* Barrett reduction (Modarith.reduce) of a product of two residues,
   with the constants of a Modarith.modulus: the mu step lands in
   [0, 3q), two conditional subtracts make it canonical. *)
let[@inline always] barrett ~q ~mu ~sh1 ~sh2 x =
  csub (csub (x - ((((x lsr sh1) * mu) lsr sh2) * q)) q) q

type domain = Coeff | Eval

type t = {
  n : int;
  basis : Basis.t;
  domain : domain;
  buf : Limb_buf.t; (* level * n contiguous elements *)
  limbs : Limb_buf.t array; (* limbs.(i) views buf at [i*n, (i+1)*n) *)
}

let n t = t.n
let basis t = t.basis
let domain t = t.domain
let level t = Basis.size t.basis
let unsafe_limb_view t i = t.limbs.(i)
let copy_limb t i = Limb_buf.copy t.limbs.(i)

let cut_views ~n buf level = Array.init level (fun i -> Limb_buf.sub buf ~pos:(i * n) ~len:n)

let create ~n ~basis ~domain =
  let level = Basis.size basis in
  let buf = Limb_buf.create (level * n) in
  { n; basis; domain; buf; limbs = cut_views ~n buf level }

let zero ~n ~basis = create ~n ~basis ~domain:Eval

let copy t =
  let buf = Limb_buf.copy t.buf in
  { t with buf; limbs = cut_views ~n:t.n buf (level t) }

let create_like a = create ~n:a.n ~basis:a.basis ~domain:a.domain

(* Build from signed coefficients: limb i is coeffs mod q_i. *)
let of_coeffs ~basis ~domain coeffs =
  let n = Array.length coeffs in
  let out = create ~n ~basis ~domain in
  for i = 0 to Basis.size basis - 1 do
    let md = Basis.modulus basis i in
    let li = out.limbs.(i) in
    for j = 0 to n - 1 do
      bset li j (Modarith.of_int md (Array.unsafe_get coeffs j))
    done
  done;
  out

let check_compat a b =
  if a.n <> b.n then invalid_arg "Rns_poly: ring dimension mismatch";
  if not (Basis.equal a.basis b.basis) then invalid_arg "Rns_poly: basis mismatch";
  if a.domain <> b.domain then invalid_arg "Rns_poly: domain mismatch"

let check_dst name dst a =
  if dst.n <> a.n then invalid_arg (name ^ ": ring dimension mismatch");
  if not (Basis.equal dst.basis a.basis) then invalid_arg (name ^ ": basis mismatch");
  if dst.domain <> a.domain then invalid_arg (name ^ ": domain mismatch")

(* dst may alias a and/or b — limb views always carry exactly n
   elements by construction, so the compat checks above are the whole
   shape proof and the loops run unchecked. *)
let add_into ~dst a b =
  check_compat a b;
  check_dst "Rns_poly.add_into" dst a;
  let n = a.n in
  for i = 0 to level a - 1 do
    let q = Modarith.q (Basis.modulus a.basis i) in
    let la = a.limbs.(i) and lb = b.limbs.(i) and ld = dst.limbs.(i) in
    for j = 0 to n - 1 do
      bset ld j (csub (bget la j + bget lb j) q)
    done
  done

let sub_into ~dst a b =
  check_compat a b;
  check_dst "Rns_poly.sub_into" dst a;
  let n = a.n in
  for i = 0 to level a - 1 do
    let q = Modarith.q (Basis.modulus a.basis i) in
    let la = a.limbs.(i) and lb = b.limbs.(i) and ld = dst.limbs.(i) in
    for j = 0 to n - 1 do
      bset ld j (csub (bget la j - bget lb j + q) q)
    done
  done

(* Hot kernel (the keyswitch inner products and every ct-ct multiply
   stream through here): unrolled by two so the pair of independent
   lanes hides the multiply latency, with both lanes' loads ahead of
   the stores (a store between them makes the second lane reload the
   buffers' data pointers).  n is a power of two >= 2, so there is
   never a tail (the guard keeps odd n safe anyway). *)
let mul_into ~dst a b =
  if a.domain <> Eval || b.domain <> Eval then
    invalid_arg "Rns_poly.mul_into: pointwise product requires Eval domain";
  check_compat a b;
  check_dst "Rns_poly.mul_into" dst a;
  let n = a.n in
  for i = 0 to level a - 1 do
    let { Modarith.q; mu; shift } = Basis.modulus a.basis i in
    let sh1 = (shift / 2) - 1 and sh2 = (shift / 2) + 1 in
    let la = a.limbs.(i) and lb = b.limbs.(i) and ld = dst.limbs.(i) in
    let j = ref 0 in
    while !j < n - 1 do
      let j0 = !j in
      let x0 = bget la j0 * bget lb j0 and x1 = bget la (j0 + 1) * bget lb (j0 + 1) in
      bset ld j0 (barrett ~q ~mu ~sh1 ~sh2 x0);
      bset ld (j0 + 1) (barrett ~q ~mu ~sh1 ~sh2 x1);
      j := j0 + 2
    done;
    if !j < n then bset ld !j (barrett ~q ~mu ~sh1 ~sh2 (bget la !j * bget lb !j))
  done

let add a b =
  check_compat a b;
  let dst = create_like a in
  add_into ~dst a b;
  dst

let sub a b =
  check_compat a b;
  let dst = create_like a in
  sub_into ~dst a b;
  dst

let mul a b =
  if a.domain <> Eval || b.domain <> Eval then
    invalid_arg "Rns_poly.mul: pointwise product requires Eval domain";
  check_compat a b;
  let dst = create_like a in
  mul_into ~dst a b;
  dst

let neg a =
  let dst = create_like a in
  let n = a.n in
  for i = 0 to level a - 1 do
    let q = Modarith.q (Basis.modulus a.basis i) in
    let la = a.limbs.(i) and ld = dst.limbs.(i) in
    for j = 0 to n - 1 do
      let x = bget la j in
      bset ld j (if x = 0 then 0 else q - x)
    done
  done;
  dst

(* Multiply limb i by the signed scalar [s i]; dst may alias a. *)
let scalar_mul_per_limb_into ~dst a s =
  check_dst "Rns_poly.scalar_mul_per_limb_into" dst a;
  let n = a.n in
  for i = 0 to level a - 1 do
    let md = Basis.modulus a.basis i in
    let { Modarith.q; mu; shift } = md in
    let sh1 = (shift / 2) - 1 and sh2 = (shift / 2) + 1 in
    let si = Modarith.of_int md (s i) in
    let la = a.limbs.(i) and ld = dst.limbs.(i) in
    for j = 0 to n - 1 do
      bset ld j (barrett ~q ~mu ~sh1 ~sh2 (bget la j * si))
    done
  done

let scalar_mul_per_limb a s =
  let dst = create_like a in
  scalar_mul_per_limb_into ~dst a s;
  dst

(* Multiply every limb by the same (signed) integer scalar. *)
let scalar_mul_into ~dst a s = scalar_mul_per_limb_into ~dst a (fun _ -> s)
let scalar_mul a s = scalar_mul_per_limb a (fun _ -> s)

let transform_limbs t ~target ~into =
  let out = create ~n:t.n ~basis:t.basis ~domain:target in
  for i = 0 to level t - 1 do
    let plan = Ntt.plan ~q:(Basis.value t.basis i) ~n:t.n in
    into plan ~src:t.limbs.(i) ~dst:out.limbs.(i)
  done;
  out

let to_eval t =
  match t.domain with
  | Eval -> t
  | Coeff -> transform_limbs t ~target:Eval ~into:Ntt.forward_into

let to_coeff t =
  match t.domain with
  | Coeff -> t
  | Eval -> transform_limbs t ~target:Coeff ~into:Ntt.inverse_into

(* Automorphism X -> X^k (k odd).

   Coeff domain: coefficient i moves to i*k mod 2N with a sign flip
   when it wraps past N — the obviously-correct form, kept as the test
   oracle.

   Eval domain: a pure slot permutation (Ntt.galois_perm), exactly what
   the paper's hardware does.  Slot j holds the evaluation at
   psi^(2*br(j)+1), and tau_k permutes those evaluation points, so the
   fast path is bitwise identical to round-tripping through INTT/NTT
   while skipping two transforms per limb. *)
let automorphism t ~k =
  if k land 1 = 0 then invalid_arg "Rns_poly.automorphism: k must be odd";
  let two_n = 2 * t.n in
  let k = ((k mod two_n) + two_n) mod two_n in
  match t.domain with
  | Eval ->
      let perm = Ntt.galois_perm ~n:t.n ~k in
      let out = create ~n:t.n ~basis:t.basis ~domain:Eval in
      for i = 0 to level t - 1 do
        Ntt.apply_perm_into perm ~src:t.limbs.(i) ~dst:out.limbs.(i)
      done;
      out
  | Coeff ->
      let out = create ~n:t.n ~basis:t.basis ~domain:Coeff in
      for i = 0 to level t - 1 do
        let md = Basis.modulus t.basis i in
        let src = t.limbs.(i) and dst = out.limbs.(i) in
        for j = 0 to t.n - 1 do
          let pos = j * k mod two_n in
          let c = Limb_buf.get src j in
          if pos < t.n then Limb_buf.set dst pos (Modarith.add md (Limb_buf.get dst pos) c)
          else Limb_buf.set dst (pos - t.n) (Modarith.sub md (Limb_buf.get dst (pos - t.n)) c)
        done
      done;
      out

(* Multiply by the monomial X^e (negacyclic): coefficient k moves to
   k+e mod 2N with a sign flip past N.  Exact and rescale-free; with
   e = N/2 this multiplies every slot by i (used by bootstrapping). *)
let monomial_mul t ~e =
  let two_n = 2 * t.n in
  let e = ((e mod two_n) + two_n) mod two_n in
  if e = 0 then t
  else begin
    let tc = to_coeff t in
    let out = create ~n:t.n ~basis:t.basis ~domain:Coeff in
    for i = 0 to level t - 1 do
      let md = Basis.modulus t.basis i in
      let src = tc.limbs.(i) and dst = out.limbs.(i) in
      for j = 0 to t.n - 1 do
        let pos = (j + e) mod two_n in
        let c = Limb_buf.get src j in
        if pos < t.n then Limb_buf.set dst pos c
        else Limb_buf.set dst (pos - t.n) (Modarith.neg md c)
      done
    done;
    if t.domain = Eval then to_eval out else out
  end

(* Restrict to a prefix of the basis (drop the top limbs) — a
   zero-copy view of the low end of the slab. *)
let drop_to_level t k =
  if k > level t then invalid_arg "Rns_poly.drop_to_level";
  {
    t with
    basis = Basis.prefix t.basis k;
    buf = Limb_buf.sub t.buf ~pos:0 ~len:(k * t.n);
    limbs = Array.sub t.limbs 0 k;
  }

(* Keep only the limbs whose modulus appears in [sub] (order of [sub]);
   copies into a fresh slab. *)
let restrict t sub =
  let out = create ~n:t.n ~basis:sub ~domain:t.domain in
  for i = 0 to Basis.size sub - 1 do
    let j = Basis.index t.basis (Basis.value sub i) in
    Limb_buf.blit ~src:t.limbs.(j) ~dst:out.limbs.(i)
  done;
  out

(* Concatenate limbs of two polynomials over disjoint bases into a
   fresh contiguous slab. *)
let concat a b =
  if a.n <> b.n || a.domain <> b.domain then invalid_arg "Rns_poly.concat";
  let out = create ~n:a.n ~basis:(Basis.union a.basis b.basis) ~domain:a.domain in
  let la = level a in
  for i = 0 to la - 1 do
    Limb_buf.blit ~src:a.limbs.(i) ~dst:out.limbs.(i)
  done;
  for i = 0 to level b - 1 do
    Limb_buf.blit ~src:b.limbs.(i) ~dst:out.limbs.(la + i)
  done;
  out

(* Sample with uniformly random limbs (mod each q_i independently) —
   used for the `a` part of ciphertexts/keys. *)
let random ~n ~basis ~domain rng =
  let out = create ~n ~basis ~domain in
  for i = 0 to Basis.size basis - 1 do
    let q = Basis.value basis i in
    let li = out.limbs.(i) in
    for j = 0 to n - 1 do
      bset li j (Cinnamon_util.Rng.int rng q)
    done
  done;
  out

(* CRT-reconstruct coefficient [j] exactly as a centered bignum pair
   (value, is_negative). Cold path: tests and decode.  The per-basis
   constants (Q, Q/q_i and its inverse) come from the shared memoized
   Crt table instead of being recomputed with bignum division per
   call. *)
let coeff_centered t j =
  let tc = to_coeff t in
  let module B = Cinnamon_util.Bigint in
  let c = Crt.consts t.basis in
  let q_prod = Crt.q_prod c in
  (* Garner-free reconstruction: x = sum_i r_i * (Q/q_i) * ((Q/q_i)^-1 mod q_i) mod Q *)
  let acc = ref B.zero in
  for i = 0 to level t - 1 do
    let md = Basis.modulus t.basis i in
    let term =
      B.mul_small (Crt.qhat c i) (Modarith.mul md (Limb_buf.get tc.limbs.(i) j) (Crt.qhat_inv c i))
    in
    acc := B.add !acc term
  done;
  (* reduce mod Q: the sum of l terms each < Q is < l*Q, so a
     compare-subtract loop bounded by the level count suffices. *)
  let rec reduce x = if B.compare x q_prod >= 0 then reduce (B.sub x q_prod) else x in
  let x = reduce !acc in
  let twice = B.mul_small x 2 in
  if B.compare twice q_prod > 0 then (B.sub q_prod x, true) else (x, false)

(* Centered coefficient as a float (for decode and error measurement). *)
let coeff_float t j =
  let v, negp = coeff_centered t j in
  let f = Cinnamon_util.Bigint.to_float v in
  if negp then -.f else f

let equal a b =
  a.n = b.n && Basis.equal a.basis b.basis
  &&
  let a' = to_coeff a and b' = to_coeff b in
  Limb_buf.equal a'.buf b'.buf
