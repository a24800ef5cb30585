(* Per-chip references for the parallel keyswitching algorithms (paper
   §4.3.1, Fig. 8), on whole polynomials with explicit per-chip data
   placement.  These are the functional forms the library ran before
   the algorithms moved onto the fused engine, minus the communication
   counting, which Keyswitch_alg.run now does around its fused calls. *)

open Cinnamon_rns
open Cinnamon_ckks

(* Round-robin limb ownership: limb i lives on chip i mod n. *)
let chip_indices ~chips ~limbs c = List.filter (fun i -> i mod chips = c) (List.init limbs Fun.id)

(* --- CiFHER broadcast keyswitching -------------------------------------- *)

(* After the input broadcast every chip holds all limbs; compute
   proceeds as in the sequential algorithm with outputs sharded per
   chip, so functionally the result is the sequential keyswitch. *)
let cifher params swk c ~chips:_ = Keyswitch.keyswitch params swk c

(* --- Input broadcast keyswitching (paper Fig. 8b) ------------------------ *)

(* One broadcast of the input limbs; every chip then computes the
   extension limbs of every digit locally (duplicated work), so the
   mod-down needs no communication and each chip ends holding exactly
   its modular share of the result.  Each chip computes only the output
   limbs it owns, then the shards are reassembled. *)
let input_broadcast params swk c ~chips =
  let limbs = Rns_poly.level c in
  let q_l = Rns_poly.basis c in
  let p_basis = params.Params.p_basis in
  let digits = Keyswitch.split_digits params c in
  let n = Rns_poly.n c in
  (* Chip c computes the inner product over basis Q_c ∪ P where Q_c is
     its modular share, using locally-computed extension limbs. *)
  let per_chip =
    List.init chips (fun chip ->
        let q_idx = chip_indices ~chips ~limbs chip in
        let local_basis = Basis.union (Basis.sub q_l q_idx) p_basis in
        let acc0 = ref (Rns_poly.create ~n ~basis:local_basis ~domain:Rns_poly.Eval) in
        let acc1 = ref (Rns_poly.create ~n ~basis:local_basis ~domain:Rns_poly.Eval) in
        List.iter
          (fun (digit_index, digit) ->
            let d_i = digit_index / params.Params.alpha in
            (* every chip has all input limbs post-broadcast: extend the
               digit to this chip's local basis *)
            let extended = Keyswitch.extend_digit digit ~target:local_basis in
            let b = Rns_poly.restrict swk.Keys.swk_b.(d_i) local_basis in
            let a = Rns_poly.restrict swk.Keys.swk_a.(d_i) local_basis in
            acc0 := Rns_poly.add !acc0 (Rns_poly.mul extended b);
            acc1 := Rns_poly.add !acc1 (Rns_poly.mul extended a))
          digits;
        let q_c = Basis.sub q_l q_idx in
        let k0 = Mod_updown.mod_down !acc0 ~target:q_c ~ext:p_basis in
        let k1 = Mod_updown.mod_down !acc1 ~target:q_c ~ext:p_basis in
        (q_idx, k0, k1))
  in
  (* Reassemble the full result from the per-chip shards. *)
  let k0 = Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval in
  let k1 = Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval in
  List.iter
    (fun (q_idx, s0, s1) ->
      List.iteri
        (fun local_i global_i ->
          Limb_buf.blit
            ~src:(Rns_poly.unsafe_limb_view (Rns_poly.to_eval s0) local_i)
            ~dst:(Rns_poly.unsafe_limb_view k0 global_i);
          Limb_buf.blit
            ~src:(Rns_poly.unsafe_limb_view (Rns_poly.to_eval s1) local_i)
            ~dst:(Rns_poly.unsafe_limb_view k1 global_i))
        q_idx)
    per_chip;
  (k0, k1)

(* --- Output aggregation keyswitching (paper Fig. 8c) --------------------- *)

(* The chips' modular limb shares are themselves the digits, so no input
   communication is needed.  Each chip mod-ups its share to the full
   basis and multiplies by its digit's evalkey; each partial is
   mod-downed BEFORE aggregating (mod-down and aggregation commute up to
   rounding noise, and the aggregated payload then spans only Q). *)
let output_aggregation params rr_swk c ~chips =
  let q_l = Rns_poly.basis c in
  let limbs = Basis.size q_l in
  let p_basis = params.Params.p_basis in
  let target = Basis.union q_l p_basis in
  let n = Rns_poly.n c in
  (* Per chip: extend own digit to the full basis, multiply by evalkey. *)
  let partials =
    List.init chips (fun chip ->
        let idx = chip_indices ~chips ~limbs chip in
        if idx = [] then None
        else begin
          let digit = Rns_poly.restrict c (Basis.sub q_l idx) in
          let extended = Keyswitch.extend_digit digit ~target in
          let b = Rns_poly.restrict rr_swk.Keys.swk_b.(chip) target in
          let a = Rns_poly.restrict rr_swk.Keys.swk_a.(chip) target in
          Some (Rns_poly.mul extended b, Rns_poly.mul extended a)
        end)
  in
  let down =
    List.map
      (Option.map (fun (f0, f1) ->
           ( Mod_updown.mod_down f0 ~target:q_l ~ext:p_basis,
             Mod_updown.mod_down f1 ~target:q_l ~ext:p_basis )))
      partials
  in
  let sum sel =
    List.fold_left
      (fun acc p -> match p with None -> acc | Some pair -> Rns_poly.add acc (sel pair))
      (Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval)
      down
  in
  (sum fst, sum snd)
