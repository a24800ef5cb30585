(* Fused hybrid keyswitching — the streaming, limb-major engine, and
   the only keyswitch dataflow in the library: Eval (its hoisted
   rotations included), Bootstrap and the parallel algorithms of
   Keyswitch_alg all run on it.

   Same mathematics as the textbook whole-polynomial keyswitch (digit
   split, mod-up, inner product, mod-down; kept as the oracle in the
   test-only library under test/oracle), but the dataflow is
   reorganized around OUTPUT limbs so every intermediate either stays
   in a cache-sized scratch tile or is never materialized at all:

     phase 1 (decompose)   one INTT per input limb, with base
                           conversion's stage-1 q̂^-1 factor fused into
                           the transform's N^-1 epilogue
                           (Ntt.inverse_scaled_into) — the oracle's
                           separate scaling pass disappears.
     phase 2 (extend+MAC)  per output limb k of Q_l ∪ P: for each
                           digit, either reuse the ciphertext's own
                           Eval limb (digit-resident limbs skip the
                           oracle's INTT∘NTT round trip entirely) or
                           produce one base-conversion column and NTT
                           it; then multiply-accumulate against the
                           (b, a) key pair LAZILY across all dnum
                           digits — raw 63-bit products, reduced once
                           at tile exit (Fused_mac).
     phase 3 (mod-down)    only the alpha P-limbs are INTT'd (scaled
                           by the P-basis q̂^-1); each output limb gets
                           one conversion column, one NTT, and a fused
                           (acc - conv)·P^-1 Shoup pass.  The oracle
                           instead INTTs all t limbs of each
                           accumulator and re-NTTs the results.

   At Params.small (l=9, alpha=3, dnum=3) this is 60 NTT-sized
   transforms against the oracle's 87, plus the eliminated key
   restricts, per-digit polynomial allocations, and two-pass
   mul+add inner product.

   Bitwise identity with the oracle holds because every fusion
   preserves canonical end values: NTT∘INTT of a canonical limb is the
   identity; a fused-scale INTT equals INTT followed by a canonical
   scalar multiply; the lazy MAC reduces the same integer sum mod q
   that the oracle's canonical mul/add chain computes; and the
   Eval-domain mod-down commutes with the (linear, exact) NTT.  The
   digit conversion tables are the same memoized Base_conv tables the
   oracle uses, so column arithmetic is literally shared.  DESIGN.md
   ("Fused keyswitch pipeline") carries the overflow-bound arithmetic.

   Digit layouts are data: a digit is a set of Q_l limbs plus the key
   pair it multiplies.  The standard layout (Params.digit_ranges
   truncated to the level) and one chip's round-robin share (output
   aggregation, Keyswitch_alg) are two values of the same type, and the
   plan memo holds one plan per (level, layout).  Output aggregation
   sums one keyswitch per share; keyswitch_shares computes that sum
   with ONE mod-down, since only the mod-down's stage-1 scaling is
   non-linear and runs per share. *)

open Cinnamon_rns
module Tel = Cinnamon_telemetry.Telemetry

type digit = { limbs : int list; key : int }

type digit_plan = {
  d_limbs : int array; (* Q_l limbs of the digit, ascending *)
  d_key : int; (* index into swk_b / swk_a *)
  d_tbl : Base_conv.table; (* digit basis -> complement-of-digit *)
  d_col : int array; (* target limb -> conversion column, -1 = digit-resident *)
}

type plan = {
  pl_n : int;
  pl_q : Basis.t; (* Q_l *)
  pl_target : Basis.t; (* Q_l ∪ P *)
  pl_tq : int; (* limbs of Q_l *)
  pl_t : int; (* limbs of Q_l ∪ P *)
  pl_alpha : int;
  pl_digits : digit_plan array;
  pl_decomp : (int * int) array; (* (digit limb, its stage-1 q̂^-1), every digit limb *)
  pl_key_idx : int array; (* target limb -> limb index in the key's Q_L ∪ P basis *)
  pl_ntt : Ntt.plan array; (* per target limb *)
  pl_down_tbl : Base_conv.table; (* P -> Q_l *)
  pl_down_scale : int array; (* P-basis q̂^-1 per P limb *)
  pl_p_inv : int array; (* P^-1 mod q_k, k over Q_l *)
  pl_p_inv_sh : int array; (* Shoup constants of the above *)
}

(* The standard hybrid layout: the full-chain digit ranges of
   Params.digit_ranges truncated to the level, digit i keyed by key
   pair i. *)
let standard_layout params ~limbs =
  Params.digit_ranges params
  |> List.filter_map (fun (lo, hi) ->
         let hi = min hi limbs in
         if hi <= lo then None
         else Some { limbs = List.init (hi - lo) (fun j -> lo + j); key = lo / params.Params.alpha })

let build_plan params ~q_l layout =
  let n = params.Params.n in
  let tq = Basis.size q_l in
  let target = Basis.union q_l params.Params.p_basis in
  let t = Basis.size target in
  let alpha = params.Params.alpha in
  let qp = Params.qp_basis params in
  let owned = Array.make tq false in
  let digit { limbs; key } =
    let d_limbs = Array.of_list limbs in
    if d_limbs = [||] then invalid_arg "Keyswitch_fused: empty digit";
    Array.iteri
      (fun i j ->
        if j < 0 || j >= tq || owned.(j) || (i > 0 && j <= d_limbs.(i - 1)) then
          invalid_arg "Keyswitch_fused: digit limbs must be ascending, disjoint and within Q_l";
        owned.(j) <- true)
      d_limbs;
    let complement = List.filter (fun k -> not (Array.mem k d_limbs)) (List.init t Fun.id) in
    let col = Array.make t (-1) in
    List.iteri (fun c k -> col.(k) <- c) complement;
    {
      d_limbs;
      d_key = key;
      d_tbl = Base_conv.table ~src:(Basis.sub q_l limbs) ~dst:(Basis.sub target complement);
      d_col = col;
    }
  in
  let digits = Array.of_list (List.map digit layout) in
  let decomp =
    Array.to_list digits
    |> List.concat_map (fun dp ->
           List.init (Array.length dp.d_limbs) (fun i ->
               (dp.d_limbs.(i), Base_conv.qhat_inv dp.d_tbl i)))
    |> Array.of_list
  in
  let down_tbl = Base_conv.table ~src:params.Params.p_basis ~dst:q_l in
  (* (prod P)^-1 mod each prime of Q_l: the mod-down's final scale. *)
  let p_prod = Basis.product params.Params.p_basis in
  let p_inv =
    Array.init tq (fun k ->
        Modarith.inv (Basis.modulus q_l k)
          (Cinnamon_util.Bigint.rem_small p_prod (Basis.value q_l k)))
  in
  {
    pl_n = n;
    pl_q = q_l;
    pl_target = target;
    pl_tq = tq;
    pl_t = t;
    pl_alpha = alpha;
    pl_digits = digits;
    pl_decomp = decomp;
    pl_key_idx = Array.init t (fun k -> Basis.index qp (Basis.value target k));
    pl_ntt = Array.init t (fun k -> Ntt.plan ~q:(Basis.value target k) ~n);
    pl_down_tbl = down_tbl;
    pl_down_scale = Array.init alpha (fun j -> Base_conv.qhat_inv down_tbl j);
    pl_p_inv = p_inv;
    pl_p_inv_sh = Array.init tq (fun k -> Modarith.shoup (Basis.modulus q_l k) p_inv.(k));
  }

(* Plans are pure functions of (n, chain, level, digit layout): one per
   level for the standard layout ([None]) plus one per chip share for
   output aggregation, cached like the NTT/base-conversion tables. *)
let plans : (digit list option * int * int list * int list * int, plan) Cinnamon_util.Memo.t =
  Cinnamon_util.Memo.create ~size:64 ()

let plan_for params ~q_l layout =
  let tq = Basis.size q_l in
  if not (Basis.equal q_l (Basis.prefix params.Params.q_basis tq)) then
    invalid_arg "Keyswitch_fused: ciphertext basis is not a prefix of the modulus chain";
  let key =
    ( layout,
      params.Params.n,
      Basis.to_list params.Params.q_basis,
      Basis.to_list params.Params.p_basis,
      tq )
  in
  Cinnamon_util.Memo.get plans key (fun () ->
      build_plan params ~q_l
        (Option.value layout ~default:(standard_layout params ~limbs:tq)))

(* Lazy dual MAC of one output limb across all digits, tiled so the
   accumulator tile stays cache-resident for the whole digit loop.
   Accumulators hold canonical values on entry (zero or a previous
   rotation's partial sum) and on exit.  Between reductions at most
   terms_per_reduction - 1 raw products ride on top of one canonical
   term: q-1 + (B-1)(q-1)^2 <= B(q-1)^2 <= max_int (DESIGN.md). *)
let mac_limb ~q ~perm ~(ext : Limb_buf.t array) ~(kb : Limb_buf.t array)
    ~(ka : Limb_buf.t array) ~acc0 ~acc1 ~n =
  let ndig = Array.length ext in
  let batch = Fused_mac.terms_per_reduction ~q in
  let tile = Scratch.tile_len ~streams:6 ~n () in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + tile) in
    let live = ref 1 in
    for d = 0 to ndig - 1 do
      if !live >= batch then begin
        Fused_mac.reduce2_range ~q ~acc0 ~acc1 ~lo:!lo ~hi;
        live := 1
      end;
      (match perm with
      | None -> Fused_mac.mac2_range ~x:ext.(d) ~b:kb.(d) ~a:ka.(d) ~acc0 ~acc1 ~lo:!lo ~hi
      | Some p ->
          Fused_mac.mac2_perm_range ~perm:p ~x:ext.(d) ~b:kb.(d) ~a:ka.(d) ~acc0 ~acc1 ~lo:!lo
            ~hi);
      incr live
    done;
    Fused_mac.reduce2_range ~q ~acc0 ~acc1 ~lo:!lo ~hi;
    lo := hi
  done

(* Phase 1: INTT every digit limb of [c] into [scaled] (indexed by Q_l
   limb), folding the owning digit's q̂^-1 factor into the transform
   epilogue.  Returns each digit's scaled limbs in digit order. *)
let decompose_scaled pl c ~(scaled : Limb_buf.t array) =
  for i = 0 to Array.length pl.pl_decomp - 1 do
    let j, scale = pl.pl_decomp.(i) in
    Ntt.inverse_scaled_into pl.pl_ntt.(j) ~scale ~src:(Rns_poly.unsafe_limb_view c j)
      ~dst:scaled.(j)
  done;
  Array.map (fun dp -> Array.map (fun j -> scaled.(j)) dp.d_limbs) pl.pl_digits

let key_views pl (part : Rns_poly.t array) k =
  let kk = pl.pl_key_idx.(k) in
  Array.map (fun dp -> Rns_poly.unsafe_limb_view part.(dp.d_key) kk) pl.pl_digits

let key_views_b pl (swk : Keys.switch_key) k = key_views pl swk.Keys.swk_b k
let key_views_a pl (swk : Keys.switch_key) k = key_views pl swk.Keys.swk_a k

(* Phase 3, stage 1: INTT the alpha P-limbs of both accumulators with
   the P-basis q̂^-1 folded in — sums.(j) for acc0, sums.(alpha + j)
   for acc1.  With [~first:false] the canonical results are added onto
   what [sums] already holds, as plain integers: stage 1 is the one
   non-linear step of the mod-down, so each share of an output
   aggregation runs it on its own accumulators and only the integer
   sums go on to stage 2. *)
let mod_down_scale pl acc0 acc1 ~(sums : Limb_buf.t array) ~first =
  let n = pl.pl_n and tq = pl.pl_tq and alpha = pl.pl_alpha in
  for i = 0 to (2 * alpha) - 1 do
    let acc = if i < alpha then acc0 else acc1 in
    let j = i mod alpha in
    let k = tq + j in
    let src = Rns_poly.unsafe_limb_view acc k in
    let scale = pl.pl_down_scale.(j) in
    if first then Ntt.inverse_scaled_into pl.pl_ntt.(k) ~scale ~src ~dst:sums.(i)
    else
      Scratch.with_buf ~n (fun y ->
          Ntt.inverse_scaled_into pl.pl_ntt.(k) ~scale ~src ~dst:y;
          let sum = sums.(i) in
          for x = 0 to n - 1 do
            Bigarray.Array1.unsafe_set sum x
              (Int64.add (Bigarray.Array1.unsafe_get sum x) (Bigarray.Array1.unsafe_get y x))
          done)
  done

(* Phase 3, stage 2: per Q_l limb, one conversion column from the
   stage-1 values (sums of [shares] canonical residues), one NTT, and
   the fused (acc - conv)·P^-1 Shoup pass — all exact linear maps mod
   q_k.  Eval in, Eval out. *)
let mod_down_columns pl ~shares acc0 acc1 ~(sums : Limb_buf.t array) =
  let n = pl.pl_n and tq = pl.pl_tq and alpha = pl.pl_alpha in
  let out0 = Rns_poly.create ~n ~basis:pl.pl_q ~domain:Rns_poly.Eval in
  let out1 = Rns_poly.create ~n ~basis:pl.pl_q ~domain:Rns_poly.Eval in
  let sc0 = Array.sub sums 0 alpha and sc1 = Array.sub sums alpha alpha in
  for i = 0 to (2 * tq) - 1 do
    let k = i mod tq in
    let acc, scl, out = if i < tq then (acc0, sc0, out0) else (acc1, sc1, out1) in
    let md = Basis.modulus pl.pl_q k in
    Scratch.with_buf ~n (fun col ->
        Base_conv.accumulate_column_into ~shares pl.pl_down_tbl ~scaled:scl ~dst:col ~k;
        Ntt.forward_into pl.pl_ntt.(k) ~src:col ~dst:col;
        Fused_mac.sub_mul_shoup_range ~q:(Modarith.q md) ~w:pl.pl_p_inv.(k)
          ~w_sh:pl.pl_p_inv_sh.(k)
          ~x:(Rns_poly.unsafe_limb_view acc k)
          ~y:col
          ~dst:(Rns_poly.unsafe_limb_view out k)
          ~lo:0 ~hi:n)
  done;
  (out0, out1)

(* Phase 3: fused mod-down of both accumulators (Eval in, Eval out). *)
let mod_down2_plan pl acc0 acc1 =
  Scratch.with_bufs ~n:pl.pl_n ~count:(2 * pl.pl_alpha) (fun sums ->
      mod_down_scale pl acc0 acc1 ~sums ~first:true;
      mod_down_columns pl ~shares:1 acc0 acc1 ~sums)

let check_input name pl c =
  if Rns_poly.domain c <> Rns_poly.Eval then invalid_arg (name ^ ": Eval-domain input required");
  if Rns_poly.n c <> pl.pl_n then invalid_arg (name ^ ": ring dimension mismatch")

(* Phases 1 and 2 of one plan: decompose [c], then per output limb of
   Q_l ∪ P extend every digit and MAC it into [acc0]/[acc1] against
   its key pair.  Canonical in, canonical out, so calls chain. *)
let extend_mac pl (swk : Keys.switch_key) c ~acc0 ~acc1 =
  let n = pl.pl_n in
  Scratch.with_bufs ~n ~count:pl.pl_tq (fun scaled ->
      let digit_scaled =
        Tel.Span.with_ ~cat:"ks_fused" "ks_fused.decompose" (fun () ->
            decompose_scaled pl c ~scaled)
      in
      Tel.Span.with_ ~cat:"ks_fused" "ks_fused.extend_mac" (fun () ->
          for k = 0 to pl.pl_t - 1 do
            let ndig = Array.length pl.pl_digits in
            let q = Basis.value pl.pl_target k in
            Scratch.with_bufs ~n ~count:ndig (fun cols ->
                let ext = Array.make ndig cols.(0) in
                for d = 0 to ndig - 1 do
                  let dp = pl.pl_digits.(d) in
                  let col = dp.d_col.(k) in
                  if col < 0 then ext.(d) <- Rns_poly.unsafe_limb_view c k
                  else begin
                    Base_conv.accumulate_column_into dp.d_tbl ~scaled:digit_scaled.(d)
                      ~dst:cols.(d) ~k:col;
                    Ntt.forward_into pl.pl_ntt.(k) ~src:cols.(d) ~dst:cols.(d);
                    ext.(d) <- cols.(d)
                  end
                done;
                mac_limb ~q ~perm:None ~ext ~kb:(key_views_b pl swk k)
                  ~ka:(key_views_a pl swk k)
                  ~acc0:(Rns_poly.unsafe_limb_view acc0 k)
                  ~acc1:(Rns_poly.unsafe_limb_view acc1 k)
                  ~n)
          done))

(* The fused keyswitch over the standard digit layout: bitwise equal
   to the whole-polynomial reference for every level prefix. *)
let keyswitch params swk c =
  let pl = plan_for params ~q_l:(Rns_poly.basis c) None in
  check_input "Keyswitch_fused.keyswitch" pl c;
  let n = pl.pl_n in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.keyswitch" (fun () ->
      let acc0 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
      let acc1 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
      extend_mac pl swk c ~acc0 ~acc1;
      Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () -> mod_down2_plan pl acc0 acc1))

(* Σ over digits of each digit's own mod-downed keyswitch (output
   aggregation's chip shares), with one mod-down for the whole sum.
   The mod-down is stage 1 (the non-linear scaled INTT of the P-limbs)
   followed by exact linear maps mod q_k (conversion column, NTT,
   (acc - col)·P^-1), so the sum of the per-share results is those
   linear maps applied once to the integer sum of the shares' stage-1
   values and to the sum of their Q-limb accumulators.  The Q-limbs
   therefore share one MAC accumulator across shares; only the alpha
   P-limbs restart per share.  Canonical values mod q_k throughout, so
   the result is bitwise the sum of the per-share keyswitches. *)
let keyswitch_shares params digits (swk : Keys.switch_key) c =
  let q_l = Rns_poly.basis c in
  let plans = List.map (fun d -> plan_for params ~q_l (Some [ d ])) digits in
  let pl0 =
    match plans with
    | pl :: _ -> pl
    | [] -> invalid_arg "Keyswitch_fused.keyswitch_shares: no shares"
  in
  check_input "Keyswitch_fused.keyswitch_shares" pl0 c;
  let n = pl0.pl_n and tq = pl0.pl_tq in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.keyswitch" (fun () ->
      let acc0 = Rns_poly.create ~n ~basis:pl0.pl_target ~domain:Rns_poly.Eval in
      let acc1 = Rns_poly.create ~n ~basis:pl0.pl_target ~domain:Rns_poly.Eval in
      Scratch.with_bufs ~n ~count:(2 * pl0.pl_alpha) (fun sums ->
          List.iteri
            (fun s pl ->
              if s > 0 then
                for j = 0 to pl.pl_alpha - 1 do
                  Limb_buf.fill (Rns_poly.unsafe_limb_view acc0 (tq + j)) 0;
                  Limb_buf.fill (Rns_poly.unsafe_limb_view acc1 (tq + j)) 0
                done;
              extend_mac pl swk c ~acc0 ~acc1;
              Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () ->
                  mod_down_scale pl acc0 acc1 ~sums ~first:(s = 0)))
            plans;
          Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () ->
              mod_down_columns pl0 ~shares:(List.length plans) acc0 acc1 ~sums)))

(* --- shared decomposition (hoisting support) -------------------------- *)

(* A decomposition materializes what phase 2 normally streams: the
   extended digits of c1 in Eval domain over Q_l ∪ P, computed once and
   reused by every rotation.  Bitwise equal to the oracle's extended
   digits (digit-resident limbs are the ciphertext's own Eval limbs;
   conversion columns share the oracle's tables). *)
type decomposition = {
  dec_plan : plan;
  dec_ext : Rns_poly.t array; (* per digit, over Q_l ∪ P, Eval *)
}

let decompose params c1 =
  let q_l = Rns_poly.basis c1 in
  let pl = plan_for params ~q_l None in
  check_input "Keyswitch_fused.decompose" pl c1;
  let n = pl.pl_n in
  let ndig = Array.length pl.pl_digits in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.decompose_shared" (fun () ->
      let ext =
        Array.init ndig (fun _ -> Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval)
      in
      Scratch.with_bufs ~n ~count:pl.pl_tq (fun scaled ->
          let digit_scaled = decompose_scaled pl c1 ~scaled in
          for i = 0 to (ndig * pl.pl_t) - 1 do
            let d = i / pl.pl_t and k = i mod pl.pl_t in
            let dp = pl.pl_digits.(d) in
            let dst = Rns_poly.unsafe_limb_view ext.(d) k in
            let col = dp.d_col.(k) in
            if col < 0 then Limb_buf.blit ~src:(Rns_poly.unsafe_limb_view c1 k) ~dst
            else begin
              Base_conv.accumulate_column_into dp.d_tbl ~scaled:digit_scaled.(d) ~dst ~k:col;
              Ntt.forward_into pl.pl_ntt.(k) ~src:dst ~dst
            end
          done);
      { dec_plan = pl; dec_ext = ext })

let target_basis dec = dec.dec_plan.pl_target

let check_acc name pl acc =
  if not (Basis.equal (Rns_poly.basis acc) pl.pl_target) || Rns_poly.domain acc <> Rns_poly.Eval
  then invalid_arg (name ^ ": accumulator must be Eval over the decomposition's Q_l ∪ P basis")

(* Inner product of the shared decomposition with [swk], optionally
   reading the extended digits through a Galois slot permutation (the
   hoisted automorphism), accumulated lazily into caller-owned
   Eval-domain accumulators over Q_l ∪ P.  Canonical in, canonical
   out, so calls chain across rotations (rotate-and-sum). *)
let accumulate dec (swk : Keys.switch_key) ?perm ~acc0 ~acc1 () =
  let pl = dec.dec_plan in
  check_acc "Keyswitch_fused.accumulate" pl acc0;
  check_acc "Keyswitch_fused.accumulate" pl acc1;
  let perm = Option.map Ntt.perm_array perm in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.hoisted_mac" (fun () ->
      for k = 0 to pl.pl_t - 1 do
        let q = Basis.value pl.pl_target k in
        let ext = Array.map (fun e -> Rns_poly.unsafe_limb_view e k) dec.dec_ext in
        mac_limb ~q ~perm ~ext ~kb:(key_views_b pl swk k) ~ka:(key_views_a pl swk k)
          ~acc0:(Rns_poly.unsafe_limb_view acc0 k)
          ~acc1:(Rns_poly.unsafe_limb_view acc1 k)
          ~n:pl.pl_n
      done)

let mod_down2 dec acc0 acc1 =
  let pl = dec.dec_plan in
  check_acc "Keyswitch_fused.mod_down2" pl acc0;
  check_acc "Keyswitch_fused.mod_down2" pl acc1;
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () -> mod_down2_plan pl acc0 acc1)

(* One full keyswitch from a shared decomposition. *)
let apply dec swk ?perm () =
  let pl = dec.dec_plan in
  let n = pl.pl_n in
  let acc0 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
  let acc1 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
  accumulate dec swk ?perm ~acc0 ~acc1 ();
  mod_down2 dec acc0 acc1
