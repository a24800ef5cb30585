(* Homomorphic evaluation: the CKKS operation set.

   Scale management follows the usual RNS-CKKS discipline: ct-ct
   multiplication multiplies scales, rescale divides by the dropped
   prime.  Operand alignment (level and scale) is handled here so
   callers can combine ciphertexts freely. *)

open Cinnamon_rns
module C = Ciphertext

type context = { params : Params.t; ek : Keys.eval_key }

let context params ek = { params; ek }

type keyswitch = Rns_poly.t -> Rns_poly.t * Rns_poly.t

(* --- level/scale alignment ------------------------------------------- *)

(* Bring two operands to a common level (multiplication combines any
   scales, so no scale requirement here). *)
let align_levels a b =
  let la = C.level a and lb = C.level b in
  let l = min la lb in
  let a = if la > l then C.drop_to_level a l else a in
  let b = if lb > l then C.drop_to_level b l else b in
  (a, b)

let align a b =
  let a, b = align_levels a b in
  (* Scale primes approximate the scale to ~2^-13 each, so scales of
     equal-level operands drift slightly; additions tolerate a small
     relative drift (the induced error is drift * message).  Code that
     needs bit-exact sums (EvalMod) routes through
     [adjust_scale]/[mul_plain_at] instead of relying on this slack. *)
  if Float.abs (a.C.scale -. b.C.scale) > 0.02 *. a.C.scale then
    invalid_arg
      (Printf.sprintf "Eval.align: scale mismatch (%.6g vs %.6g)" a.C.scale b.C.scale);
  (a, b)

(* --- linear operations ------------------------------------------------ *)

let add a b =
  let a, b = align a b in
  C.make ~c0:(Rns_poly.add a.C.c0 b.C.c0) ~c1:(Rns_poly.add a.C.c1 b.C.c1) ~scale:a.C.scale
    ~slots:a.C.slots

let sub a b =
  let a, b = align a b in
  C.make ~c0:(Rns_poly.sub a.C.c0 b.C.c0) ~c1:(Rns_poly.sub a.C.c1 b.C.c1) ~scale:a.C.scale
    ~slots:a.C.slots

let neg a = C.make ~c0:(Rns_poly.neg a.C.c0) ~c1:(Rns_poly.neg a.C.c1) ~scale:a.C.scale ~slots:a.C.slots

(* Add an encoded plaintext (encoded at the ciphertext's scale). *)
let add_plain ctx a z =
  let basis = C.basis a in
  let pt =
    Encoding.encode ~basis ~n:ctx.params.Params.n ~delta:a.C.scale
      (Array.append z (Array.make (max 0 (a.C.slots - Array.length z)) Cinnamon_util.Cplx.zero))
  in
  C.make ~c0:(Rns_poly.add a.C.c0 (Rns_poly.to_eval pt)) ~c1:a.C.c1 ~scale:a.C.scale ~slots:a.C.slots

let add_const ctx a x =
  add_plain ctx a (Array.make a.C.slots (Cinnamon_util.Cplx.make x 0.0))

(* --- rescale ----------------------------------------------------------- *)

(* Drop the top prime q_top and divide by it: the standard exact RNS
   rescale c'_j = (c_j - c_top) * q_top^{-1} mod q_j. *)
let rescale_poly p =
  let basis = Rns_poly.basis p in
  let l = Basis.size basis in
  if l < 2 then invalid_arg "Eval.rescale: no prime left to drop";
  let q_top = Basis.value basis (l - 1) in
  let pc = Rns_poly.to_coeff p in
  let top = Rns_poly.unsafe_limb_view pc (l - 1) in
  let out_basis = Basis.prefix basis (l - 1) in
  let n = Rns_poly.n p in
  let out = Rns_poly.create ~n ~basis:out_basis ~domain:Rns_poly.Coeff in
  for j = 0 to l - 2 do
    let md = Basis.modulus out_basis j in
    let inv = Modarith.inv md (q_top mod Modarith.q md) in
    let src = Rns_poly.unsafe_limb_view pc j in
    let dst = Rns_poly.unsafe_limb_view out j in
    for i = 0 to n - 1 do
      let t = Limb_buf.unsafe_get top i mod Modarith.q md in
      Limb_buf.unsafe_set dst i
        (Modarith.mul md (Modarith.sub md (Limb_buf.unsafe_get src i) t) inv)
    done
  done;
  Rns_poly.to_eval out

let rescale a =
  let basis = C.basis a in
  let q_top = Basis.value basis (Basis.size basis - 1) in
  C.make ~c0:(rescale_poly a.C.c0) ~c1:(rescale_poly a.C.c1)
    ~scale:(a.C.scale /. Float.of_int q_top)
    ~slots:a.C.slots

(* --- multiplication ---------------------------------------------------- *)

(* Multiply by a plaintext encoded at [encode_scale] (default: the
   parameter scale), then rescale.  [out_scale], when given, overrides
   the float bookkeeping of the result scale — used by exact scale
   management to make later additions bit-exact. *)
let mul_plain_at ctx a z ~encode_scale ?out_scale () =
  let basis = C.basis a in
  let pt = Rns_poly.to_eval (Encoding.encode ~basis ~n:ctx.params.Params.n ~delta:encode_scale z) in
  let raw =
    C.make ~c0:(Rns_poly.mul a.C.c0 pt) ~c1:(Rns_poly.mul a.C.c1 pt)
      ~scale:(a.C.scale *. encode_scale) ~slots:a.C.slots
  in
  let r = rescale raw in
  match out_scale with
  | None -> r
  | Some s -> C.make ~c0:r.C.c0 ~c1:r.C.c1 ~scale:s ~slots:r.C.slots

let mul_plain ctx a z = mul_plain_at ctx a z ~encode_scale:ctx.params.Params.scale ()

(* Plaintext product without the rescale: the result stays at scale
   s * delta.  Used by lazy rescaling, which sums raw products and
   rescales once. *)
let mul_plain_raw ctx a z =
  let basis = C.basis a in
  let pt =
    Rns_poly.to_eval (Encoding.encode ~basis ~n:ctx.params.Params.n ~delta:ctx.params.Params.scale z)
  in
  C.make ~c0:(Rns_poly.mul a.C.c0 pt) ~c1:(Rns_poly.mul a.C.c1 pt)
    ~scale:(a.C.scale *. ctx.params.Params.scale) ~slots:a.C.slots

(* Exact scale adjustment: bring [a] to exactly ([target_level],
   [target_scale]) by multiplying with the constant 1.0 encoded at the
   right scale.  Consumes one level; the encoded constant's rounding
   (≈ 2^-26 relative) goes into the noise.  This is the EVA/Lattigo
   "scale management" primitive that makes heterogeneous Chebyshev
   terms addable bit-exactly. *)
let adjust_scale ctx a ~target_level ~target_scale =
  if target_level >= C.level a then
    invalid_arg "Eval.adjust_scale: needs at least one level of headroom";
  let a = if C.level a > target_level + 1 then Ciphertext.drop_to_level a (target_level + 1) else a in
  let basis = C.basis a in
  let q_top = Float.of_int (Basis.value basis (Basis.size basis - 1)) in
  let f = target_scale *. q_top /. a.C.scale in
  if f < 1024.0 then invalid_arg "Eval.adjust_scale: adjustment constant too coarse";
  let one = Array.make a.C.slots (Cinnamon_util.Cplx.make 1.0 0.0) in
  mul_plain_at ctx a one ~encode_scale:f ~out_scale:target_scale ()

let mul_const ctx a x = mul_plain ctx a (Array.make a.C.slots (Cinnamon_util.Cplx.make x 0.0))

(* Multiply by an integer constant without consuming a level. *)
let mul_int a k =
  C.make ~c0:(Rns_poly.scalar_mul a.C.c0 k) ~c1:(Rns_poly.scalar_mul a.C.c1 k)
    ~scale:a.C.scale ~slots:a.C.slots

(* Multiply every slot by i exactly (monomial X^{N/2}); free. *)
let mul_by_i a =
  let e = Rns_poly.n a.C.c0 / 2 in
  C.make ~c0:(Rns_poly.monomial_mul a.C.c0 ~e) ~c1:(Rns_poly.monomial_mul a.C.c1 ~e)
    ~scale:a.C.scale ~slots:a.C.slots

(* The default keyswitch of every op: the fused engine under [swk]. *)
let fused ctx swk = Keyswitch_fused.keyswitch ctx.params swk

(* Ciphertext-ciphertext multiplication with relinearization and
   rescale (the paper's Fig. 5 left).  [keyswitch] relinearizes d2
   (default: the fused engine under the relin key). *)
let mul ?keyswitch ctx a b =
  let a, b = align_levels a b in
  let d0 = Rns_poly.mul a.C.c0 b.C.c0 in
  (* d1 = c0*b1 + c1*b0, accumulated in place: the first product is the
     destination, the second goes through one temporary. *)
  let d1 = Rns_poly.mul a.C.c0 b.C.c1 in
  let tmp = Rns_poly.create_like d1 in
  Rns_poly.mul_into ~dst:tmp a.C.c1 b.C.c0;
  Rns_poly.add_into ~dst:d1 d1 tmp;
  let d2 = Rns_poly.mul a.C.c1 b.C.c1 in
  let keyswitch = match keyswitch with Some f -> f | None -> fused ctx ctx.ek.Keys.relin in
  let k0, k1 = keyswitch d2 in
  let raw =
    C.make ~c0:(Rns_poly.add d0 k0) ~c1:(Rns_poly.add d1 k1)
      ~scale:(a.C.scale *. b.C.scale) ~slots:a.C.slots
  in
  rescale raw

let square ?keyswitch ctx a = mul ?keyswitch ctx a a

(* --- rotation and conjugation ----------------------------------------- *)

(* The automorphism X -> X^k of [a] with (k0, k1), the keyswitch of
   c1^k back to s, added in: the paper's Fig. 5 right. *)
let assemble a ~k (k0, k1) =
  C.make ~c0:(Rns_poly.add (Rns_poly.automorphism a.C.c0 ~k) k0) ~c1:k1 ~scale:a.C.scale
    ~slots:a.C.slots

let rotation_key ctx r =
  Keys.find_rotation_key ctx.ek (Keys.canonical_rotation ~n:ctx.params.Params.n r)

(* Homomorphic slot rotation.  Gap-packed (sparse) encodings rotate
   with the same Galois element 5^r as full packings: the induced
   full-slot vector is the sparse vector repeated, so slot index r is
   preserved. *)
let rotate ?keyswitch ctx a r =
  if r = 0 then a
  else begin
    let k = Keys.galois_of_rotation ~n:ctx.params.Params.n r in
    let keyswitch = match keyswitch with Some f -> f | None -> fused ctx (rotation_key ctx r) in
    assemble a ~k (keyswitch (Rns_poly.automorphism a.C.c1 ~k))
  end

let conjugate ?keyswitch ctx a =
  let keyswitch =
    match (keyswitch, ctx.ek.Keys.conjugation) with
    | Some f, _ -> f
    | None, Some swk -> fused ctx swk
    | None, None -> invalid_arg "Eval.conjugate: no conjugation key"
  in
  let k = Keys.galois_conjugate ~n:ctx.params.Params.n in
  assemble a ~k (keyswitch (Rns_poly.automorphism a.C.c1 ~k))

(* --- hoisted rotations (Halevi–Shoup) ----------------------------------

   Rotating one ciphertext by many amounts shares one digit
   decomposition of c1: the automorphism commutes with mod-up up to
   the conversion's rounding (base conversion acts coefficient-wise,
   the automorphism permutes coefficients uniformly across limbs), so
   each rotation is one permuted multiply-accumulate over the shared
   extended digits (the permutation is a gather inside the key
   multiply) plus a mod-down.  This is the single-chip counterpart of
   the compiler's batched input-broadcast keyswitching. *)

let rotate_many ctx ct rots =
  let dec = Keyswitch_fused.decompose ctx.params ct.C.c1 in
  let n = ctx.params.Params.n in
  List.map
    (fun r ->
      if r = 0 then (r, ct)
      else begin
        let k = Keys.galois_of_rotation ~n r in
        let perm = Ntt.galois_perm ~n ~k in
        (r, assemble ct ~k (Keyswitch_fused.apply dec (rotation_key ctx r) ~perm ()))
      end)
    rots

(* Sum of rotations with ONE mod-down: every rotation's inner product
   accumulates over Q_l ∪ P (canonical adds chain across calls), and
   the division by P happens once at the end.  The single mod-down
   folds all rotations' conversion slack into one rounding, so the
   result matches the sum of [rotate_many]'s outputs approximately
   (within noise), not bitwise. *)
let rotate_sum ctx ct rots =
  if rots = [] then invalid_arg "Eval.rotate_sum: empty rotation list";
  let n = ctx.params.Params.n in
  let dec = Keyswitch_fused.decompose ctx.params ct.C.c1 in
  let target = Keyswitch_fused.target_basis dec in
  let acc0 = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Eval in
  let acc1 = Rns_poly.create ~n ~basis:target ~domain:Rns_poly.Eval in
  let zero () = Rns_poly.create ~n ~basis:(C.basis ct) ~domain:Rns_poly.Eval in
  let c0_sum = ref (zero ()) and c1_sum = ref (zero ()) in
  List.iter
    (fun r ->
      (* rot = 0 contributes the ciphertext itself, keyswitch-free. *)
      if r = 0 then begin
        c0_sum := Rns_poly.add !c0_sum ct.C.c0;
        c1_sum := Rns_poly.add !c1_sum ct.C.c1
      end
      else begin
        let k = Keys.galois_of_rotation ~n r in
        let perm = Ntt.galois_perm ~n ~k in
        Keyswitch_fused.accumulate dec (rotation_key ctx r) ~perm ~acc0 ~acc1 ();
        c0_sum := Rns_poly.add !c0_sum (Rns_poly.automorphism ct.C.c0 ~k)
      end)
    rots;
  let k0, k1 = Keyswitch_fused.mod_down2 dec acc0 acc1 in
  C.make ~c0:(Rns_poly.add !c0_sum k0) ~c1:(Rns_poly.add !c1_sum k1) ~scale:ct.C.scale
    ~slots:ct.C.slots
