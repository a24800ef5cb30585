(* Differential tests for the Bigarray kernel layer.

   Every Limb_buf kernel is pinned BITWISE against a naive boxed
   [int array] oracle (canonical Modarith arithmetic, no lazy
   reduction, no Bigarray, tables rebuilt from the moduli) across random ring sizes, modulus widths and limb counts —
   so the Harvey lazy-reduction tricks can never drift from the
   textbook semantics unnoticed. *)

open Cinnamon_rns
module Rng = Cinnamon_util.Rng
module Ntt_ref = Cinnamon_oracle.Ntt_ref
module Base_conv_ref = Cinnamon_oracle.Base_conv_ref

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_arr rng n q = Array.init n (fun _ -> Rng.int rng q)

(* Run the Limb_buf kernel on a boxed input, return a boxed output. *)
let run_fwd plan a =
  let dst = Limb_buf.create (Array.length a) in
  Ntt.forward_into plan ~src:(Limb_buf.of_int_array a) ~dst;
  Limb_buf.to_int_array dst

let run_inv plan a =
  let dst = Limb_buf.create (Array.length a) in
  Ntt.inverse_into plan ~src:(Limb_buf.of_int_array a) ~dst;
  Limb_buf.to_int_array dst

(* --- NTT vs oracle, random shapes ---------------------------------------- *)

(* Modulus width sweeps across the lazy-reduction boundary: q < 2^29
   takes the 4q-lazy butterflies, 29..30-bit q the 2q variant.  Ring
   sizes run from N = 2 (only the final t = 1 stage) to 8192. *)
let shape_gen = QCheck2.Gen.(triple (int_range 1 13) (int_range 26 30) (int_bound 10000))

let test_ntt_forward_matches_oracle =
  qtest ~count:40 "ntt forward = int-array oracle (bitwise)" shape_gen
    (fun (logn, bits, seed) ->
      let n = 1 lsl logn in
      let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
      let plan = Ntt.plan ~q ~n in
      let a = random_arr (Rng.create ~seed) n q in
      run_fwd plan a = Ntt_ref.forward ~q a)

let test_ntt_inverse_matches_oracle =
  qtest ~count:40 "ntt inverse = int-array oracle (bitwise)" shape_gen
    (fun (logn, bits, seed) ->
      let n = 1 lsl logn in
      let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
      let plan = Ntt.plan ~q ~n in
      let a = random_arr (Rng.create ~seed) n q in
      run_inv plan a = Ntt_ref.inverse ~q a)

let test_ntt_roundtrip_shapes =
  qtest ~count:30 "intt(ntt(a)) = a (random shapes)" shape_gen
    (fun (logn, bits, seed) ->
      let n = 1 lsl logn in
      let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
      let plan = Ntt.plan ~q ~n in
      let a = random_arr (Rng.create ~seed) n q in
      run_inv plan (run_fwd plan a) = a)

(* --- base conversion vs oracle ------------------------------------------- *)

let test_base_conv_matches_oracle =
  qtest ~count:20 "base_conv = int-array oracle (bitwise)"
    QCheck2.Gen.(
      pair (int_range 3 11)
        (quad (int_range 1 5) (int_range 1 4) (int_range 26 30) (int_bound 10000)))
    (fun (logn, (l, m, bits, seed)) ->
      let n = 1 lsl logn in
      let src_ps = Prime_gen.gen_primes ~bits ~n ~count:l () in
      let src = Basis.of_primes src_ps in
      let dst = Basis.of_primes (Prime_gen.gen_primes ~bits:28 ~n ~count:m ~avoid:src_ps ()) in
      let rng = Rng.create ~seed in
      let x = Rns_poly.random ~n ~basis:src ~domain:Rns_poly.Coeff rng in
      let fast = Base_conv.convert x ~dst in
      let naive = Base_conv_ref.convert x ~dst in
      List.for_all
        (fun k ->
          Limb_buf.equal (Rns_poly.unsafe_limb_view fast k) (Rns_poly.unsafe_limb_view naive k))
        (List.init m Fun.id))

(* --- pointwise multiply vs scalar oracle ---------------------------------- *)

(* The unroll-2 / branchless-Barrett rewrite of Rns_poly.mul_into must
   compute exactly the per-element Modarith.mul sequence, limb by limb
   — including when the destination aliases an operand. *)
let test_mul_into_matches_scalar_oracle =
  qtest ~count:40 "mul_into = Modarith.mul oracle (bitwise)"
    QCheck2.Gen.(quad (int_range 2 9) (int_range 1 4) (int_range 26 30) (int_bound 10000))
    (fun (logn, limbs, bits, seed) ->
      let n = 1 lsl logn in
      let basis = Basis.of_primes (Prime_gen.gen_primes ~bits ~n ~count:limbs ()) in
      let rng = Rng.create ~seed in
      let x = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
      let y = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
      let dst = Rns_poly.create_like x in
      Rns_poly.mul_into ~dst x y;
      let aliased = Rns_poly.copy x in
      Rns_poly.mul_into ~dst:aliased aliased y;
      List.for_all
        (fun k ->
          let md = Basis.modulus basis k in
          let xv = Rns_poly.unsafe_limb_view x k and yv = Rns_poly.unsafe_limb_view y k in
          let dv = Rns_poly.unsafe_limb_view dst k and av = Rns_poly.unsafe_limb_view aliased k in
          List.for_all
            (fun i ->
              let expect = Modarith.mul md (Limb_buf.get xv i) (Limb_buf.get yv i) in
              Limb_buf.get dv i = expect && Limb_buf.get av i = expect)
            (List.init n Fun.id))
        (List.init limbs Fun.id))

(* inverse_scaled_into fuses a canonical scalar into the INTT's final
   pass; it must equal inverse_into followed by a Modarith multiply. *)
let test_inverse_scaled_matches_unfused =
  qtest ~count:30 "inverse_scaled_into = inverse + scalar mul (bitwise)"
    QCheck2.Gen.(quad (int_range 1 13) (int_range 26 30) (int_bound 10000) (int_bound 1000000))
    (fun (logn, bits, seed, sseed) ->
      let n = 1 lsl logn in
      let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
      let plan = Ntt.plan ~q ~n in
      let md = Ntt.plan_modulus plan in
      let a = random_arr (Rng.create ~seed) n q in
      let scale = 1 + (sseed mod (q - 1)) in
      let fused = Limb_buf.create n in
      Ntt.inverse_scaled_into plan ~scale ~src:(Limb_buf.of_int_array a) ~dst:fused;
      let unfused = Array.map (fun v -> Modarith.mul md v scale) (run_inv plan a) in
      Limb_buf.to_int_array fused = unfused)

(* --- scratch arena --------------------------------------------------------- *)

let test_scratch_shapes () =
  (* with_bufs hands out [count] views of exactly [n] elements each —
     the n/count confusion of the old int-array arena cannot recur *)
  Scratch.with_bufs ~n:5 ~count:3 (fun bufs ->
      Alcotest.(check int) "count" 3 (Array.length bufs);
      Array.iter (fun b -> Alcotest.(check int) "len" 5 (Limb_buf.length b)) bufs;
      (* the views are disjoint: writes through one never alias another *)
      Array.iteri (fun i b -> Limb_buf.fill b (i + 1)) bufs;
      Array.iteri
        (fun i b ->
          for j = 0 to 4 do
            Alcotest.(check int) "disjoint" (i + 1) (Limb_buf.get b j)
          done)
        bufs);
  (* interleaved loans of different lengths keep exact lengths *)
  Scratch.with_buf ~n:7 (fun a ->
      Scratch.with_buf ~n:100 (fun b ->
          Alcotest.(check int) "inner len" 100 (Limb_buf.length b);
          Alcotest.(check int) "outer len" 7 (Limb_buf.length a)))

let test_scratch_tiles () =
  (* tile_len: power of two, fits the byte budget, clamped to [64, n] *)
  let len = Scratch.tile_len ~budget_bytes:(512 * 1024) ~streams:6 ~n:65536 () in
  Alcotest.(check bool) "pow2" true (len land (len - 1) = 0);
  Alcotest.(check bool) "fits budget" true (6 * len * 8 <= 512 * 1024);
  Alcotest.(check bool) "at least 64" true (len >= 64);
  (* a small ring never tiles: the whole limb is one tile *)
  Alcotest.(check int) "small ring is one tile" 1024 (Scratch.tile_len ~streams:6 ~n:1024 ());
  Scratch.with_tiles ~streams:6 ~n:65536 ~count:2 (fun ~tile bufs ->
      Alcotest.(check int) "tile param matches views" tile (Limb_buf.length bufs.(0));
      Alcotest.(check int) "count" 2 (Array.length bufs))

let suite =
  ( "kernels",
    [
      test_ntt_forward_matches_oracle;
      test_ntt_inverse_matches_oracle;
      test_ntt_roundtrip_shapes;
      test_base_conv_matches_oracle;
      test_mul_into_matches_scalar_oracle;
      test_inverse_scaled_matches_unfused;
      Alcotest.test_case "scratch arena shapes" `Quick test_scratch_shapes;
      Alcotest.test_case "scratch cache tiles" `Quick test_scratch_tiles;
    ] )
