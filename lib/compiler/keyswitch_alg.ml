(* The parallel keyswitching algorithms (paper §4.3.1, Fig. 8).

   Each algorithm exists in two forms:

   1. A functional form [run] over real RNS polynomials.  Every
      algorithm is checks, communication accounting and ONE call into
      the fused engine (Cinnamon_ckks.Keyswitch_fused, the library's
      one keyswitch dataflow): [keyswitch] for sequential, CiFHER and
      input broadcast, [keyswitch_shares] for output aggregation, which
      sums the chips' mod-downed partials with one shared mod-down.
      Communication (limbs crossing chips) is not observed from data
      movement: it is counted with the analytic formulas
      [count_broadcast] / [count_aggregate] below.

   2. A limb-IR emitter [emit] (in Lower_limb) that produces the
      per-chip instruction streams the scheduler and simulator consume.

   Communication accounting follows the paper:
     sequential          — no inter-chip traffic (single chip)
     CiFHER broadcast    — broadcast at mod-up and twice at mod-down
     input broadcast     — ONE broadcast (mod-up); extension limbs are
                           duplicated so mod-down needs no traffic
     output aggregation  — digit-per-chip; TWO aggregate+scatter ops at
                           the end, batchable across keyswitches

   The per-chip whole-polynomial forms these reproduce bit for bit are
   kept as references beside the tests (test/oracle). *)

open Cinnamon_rns
open Cinnamon_ckks

type comm_counter = {
  mutable n_broadcast : int;
  mutable n_aggregate : int;
  mutable limbs_moved : int; (* limb-payloads crossing chip boundaries *)
}

let new_counter () = { n_broadcast = 0; n_aggregate = 0; limbs_moved = 0 }

(* Record a broadcast of [limbs] limbs from their owners to all [chips]:
   every limb must reach chips-1 other chips.  On the paper's ring
   interconnect each link carries it once, so the per-link payload is
   counted once per limb per receiving chip. *)
let count_broadcast cnt ~limbs ~chips =
  cnt.n_broadcast <- cnt.n_broadcast + 1;
  cnt.limbs_moved <- cnt.limbs_moved + (limbs * (chips - 1))

(* Record a reduce-scatter of [limbs] limbs over [chips]: each chip
   sends (chips-1)/chips of its data, limbs*(chips-1) in total. *)
let count_aggregate cnt ~limbs ~chips =
  cnt.n_aggregate <- cnt.n_aggregate + 1;
  cnt.limbs_moved <- cnt.limbs_moved + (limbs * (chips - 1))

(* Modular (round-robin) limb ownership: limb index i lives on chip
   i mod n (paper §4.3.1). *)
let chip_indices ~chips ~limbs c = List.filter (fun i -> i mod chips = c) (List.init limbs Fun.id)

(* --- CiFHER broadcast keyswitching -------------------------------------- *)

(* CiFHER [38] resolves cross-limb dependencies by broadcasting the
   inputs of every base conversion: the input limbs at mod-up and the
   extension limbs of both accumulators at mod-down.  After the
   broadcasts every chip holds what the sequential algorithm needs, so
   the result IS the sequential keyswitch; only placement and traffic
   differ. *)
let run_cifher params swk c ~chips cnt =
  let ext = Basis.size params.Params.p_basis in
  count_broadcast cnt ~limbs:(Rns_poly.level c) ~chips;
  count_broadcast cnt ~limbs:ext ~chips;
  count_broadcast cnt ~limbs:ext ~chips;
  Keyswitch_fused.keyswitch params swk c

(* --- Input broadcast keyswitching (paper Fig. 8b) ------------------------ *)

(* One broadcast of the input limbs; every chip then computes the
   extension limbs of every digit locally (duplicated work), so the
   mod-down needs no communication and each chip ends holding exactly
   its modular share of the result.  Every output limb is computed from
   the same digits, key limbs and conversion columns whichever chip owns
   it, so each chip's share is bitwise those limbs of the sequential
   keyswitch: one fused call computes all shares at once. *)
let run_input_broadcast params swk c ~chips cnt =
  count_broadcast cnt ~limbs:(Rns_poly.level c) ~chips;
  Keyswitch_fused.keyswitch params swk c

(* --- Output aggregation keyswitching (paper Fig. 8c) --------------------- *)

(* The chips' modular limb shares are themselves used as the digits, so
   no input communication is needed.  Each chip mod-ups its share to
   the full basis and multiplies by its digit's evalkey; each partial is
   mod-downed BEFORE aggregating, so the aggregated payload spans only
   Q (l limbs, not l+k).  The emulator computes the aggregated sum
   directly (Keyswitch_fused.keyswitch_shares): it is bitwise the sum
   of the per-chip mod-downed partials, with the linear part of the
   mod-down shared.  Requires a switch key with one digit per chip
   partition — gen_round_robin_key below, legitimate by
   digit-selection freedom (paper: "implementations with all possible
   choices of digits are interchangeable").  A share wider than alpha
   would make the digit product exceed P (the invariant of
   Params.make), so it is rejected rather than decrypted as noise. *)
let run_output_aggregation params rr_swk c ~chips cnt =
  let limbs = Rns_poly.level c in
  let alpha = params.Params.alpha in
  let share = Cinnamon_util.Bitops.cdiv limbs chips in
  if share > alpha then
    Cinnamon_util.Error.failf Cinnamon_util.Error.Invalid_input
      "Keyswitch_alg.run: output aggregation puts %d limbs on one of %d chips, more than alpha \
       = %d"
      share chips alpha;
  count_aggregate cnt ~limbs ~chips;
  count_aggregate cnt ~limbs ~chips;
  let shares =
    List.filter_map
      (fun chip ->
        match chip_indices ~chips ~limbs chip with
        | [] -> None
        | idx -> Some Keyswitch_fused.{ limbs = idx; key = chip })
      (List.init chips Fun.id)
  in
  Keyswitch_fused.keyswitch_shares params shares rr_swk c

(* A switch key for the round-robin digit layout over [chips] chips at
   the top level.  Digit c = limb indices ≡ c (mod chips). *)
let gen_round_robin_key params sk ~s_from ~chips rng =
  let limbs = params.Params.levels + 1 in
  Keys.gen_switch_key params sk ~digits:(List.init chips (chip_indices ~chips ~limbs)) ~s_from rng

(* --- dispatcher ----------------------------------------------------------- *)

type key_material =
  | Standard of Keys.switch_key
  | Round_robin of Keys.switch_key (* digit = chip partition *)

let run params ~algorithm ~chips ~key c cnt =
  if chips < 1 then
    Cinnamon_util.Error.failf Cinnamon_util.Error.Invalid_input
      "Keyswitch_alg.run: %d chips, need at least 1" chips;
  match (algorithm, key) with
  | Cinnamon_ir.Poly_ir.Seq, Standard swk -> Keyswitch_fused.keyswitch params swk c
  | Cinnamon_ir.Poly_ir.Cifher_broadcast, Standard swk -> run_cifher params swk c ~chips cnt
  | Cinnamon_ir.Poly_ir.Input_broadcast, Standard swk -> run_input_broadcast params swk c ~chips cnt
  | Cinnamon_ir.Poly_ir.Output_aggregation, Round_robin swk ->
    let pairs = Array.length swk.Keys.swk_b in
    if pairs <> chips then
      Cinnamon_util.Error.failf Cinnamon_util.Error.Invalid_input
        "Keyswitch_alg.run: round-robin key made for %d chips, run at %d" pairs chips;
    run_output_aggregation params swk c ~chips cnt
  | _ ->
    Cinnamon_util.Error.fail Cinnamon_util.Error.Invalid_input
      "Keyswitch_alg.run: algorithm/key mismatch"
