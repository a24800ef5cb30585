(* Hoisted rotations (Halevi–Shoup [28], the single-chip ancestor of
   the paper's batched input-broadcast keyswitching).

   Rotating one ciphertext by r different amounts naively performs r
   keyswitches, each re-running the digit decomposition (INTT + base
   conversion + NTT) of the same input polynomial.  Hoisting computes
   the decomposition ONCE: the extended digits of c1 are shared, and
   each rotation applies its automorphism to the precomputed extended
   digits before the per-rotation inner product and mod-down.

   This relies on the automorphism commuting with everything limb-wise:
   tau_k(modUp(d)) = modUp(tau_k(d)), because base conversion acts
   coefficient-wise and tau_k permutes coefficients uniformly across
   limbs.

   The fast path rides Keyswitch_fused: the shared decomposition is
   built by the fused extend pipeline, each rotation is one lazy
   permuted MAC (the automorphism is a gather inside the key multiply
   — no permuted polynomial is ever materialized) plus one fused
   mod-down, and rotate-and-sum accumulates every rotation's inner
   product before a SINGLE mod-down.  The _ref functions keep the
   original formulation as the bitwise oracle for the fused path.

   The compiler's keyswitch pass performs the same sharing across chips
   (one broadcast per rotation batch); this module is its functional
   single-chip counterpart and the reference for its correctness
   tests. *)

open Cinnamon_rns

type precomputed = { h_dec : Keyswitch_fused.decomposition }

(* Decompose and extend the c1 component once (fused pipeline). *)
let precompute ?pool params c1 = { h_dec = Keyswitch_fused.decompose ?pool params c1 }

(* One hoisted rotation: permuted inner product + mod-down from the
   shared decomposition. *)
let rotate_hoisted ?pool _params (pre : precomputed) swk ct ~rot =
  let open Ciphertext in
  if rot = 0 then ct
  else begin
    let n = Ciphertext.n ct in
    let k = Keys.galois_of_rotation ~n rot in
    let perm = Ntt.galois_perm ~n ~k in
    let k0, k1 = Keyswitch_fused.apply ?pool pre.h_dec swk ~perm () in
    let c0r = Rns_poly.automorphism ct.c0 ~k in
    make ~c0:(Rns_poly.add c0r k0) ~c1:k1 ~scale:ct.scale ~slots:ct.slots
  end

(* Rotate [ct] by every amount in [rots], sharing one decomposition.
   Each amount needs its key in [ek]. *)
let rotate_many ?pool params (ek : Keys.eval_key) ct rots =
  let pre = precompute ?pool params ct.Ciphertext.c1 in
  List.map
    (fun rot ->
      if rot = 0 then (rot, ct)
      else begin
        let key = Keys.find_rotation_key ek (Keys.canonical_rotation ~n:(Ciphertext.n ct) rot) in
        (rot, rotate_hoisted ?pool params pre key ct ~rot)
      end)
    rots

(* Sum of rotations with ONE mod-down: every rotation's inner product
   accumulates over Q_l ∪ P (canonical adds chain across calls), and
   the division by P happens once at the end.  Saves (2 rotations - 2)
   mod-downs versus summing rotate_hoisted results; the single
   mod-down folds all rotations' conversion slack into one rounding,
   so the result matches the naive sum approximately (within noise),
   not bitwise. *)
let rotate_sum ?pool params (ek : Keys.eval_key) ct rots =
  let open Ciphertext in
  if rots = [] then invalid_arg "Hoisting.rotate_sum: empty rotation list";
  let n = Ciphertext.n ct in
  let dec = Keyswitch_fused.decompose ?pool params ct.c1 in
  let target = Keyswitch_fused.target_basis dec in
  let q_l = Ciphertext.basis ct in
  let nn = params.Params.n in
  let acc0 = Rns_poly.create ~n:nn ~basis:target ~domain:Rns_poly.Eval in
  let acc1 = Rns_poly.create ~n:nn ~basis:target ~domain:Rns_poly.Eval in
  let c0_sum = ref (Rns_poly.create ~n:nn ~basis:q_l ~domain:Rns_poly.Eval) in
  (* rot = 0 contributes the ciphertext itself, keyswitch-free. *)
  let c1_extra = ref None in
  List.iter
    (fun rot ->
      if rot = 0 then begin
        c0_sum := Rns_poly.add !c0_sum ct.c0;
        c1_extra :=
          Some (match !c1_extra with None -> ct.c1 | Some e -> Rns_poly.add e ct.c1)
      end
      else begin
        let k = Keys.galois_of_rotation ~n rot in
        let perm = Ntt.galois_perm ~n ~k in
        let swk = Keys.find_rotation_key ek (Keys.canonical_rotation ~n rot) in
        Keyswitch_fused.accumulate ?pool dec swk ~perm ~acc0 ~acc1 ();
        c0_sum := Rns_poly.add !c0_sum (Rns_poly.automorphism ct.c0 ~k)
      end)
    rots;
  let k0, k1 = Keyswitch_fused.mod_down2 ?pool dec acc0 acc1 in
  let c1 = match !c1_extra with None -> k1 | Some e -> Rns_poly.add k1 e in
  make ~c0:(Rns_poly.add !c0_sum k0) ~c1 ~scale:ct.scale ~slots:ct.slots
