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

(* The branchless add, subtract and scalar multiply, residue by residue
   against Modarith, with 0 and q - 1 among the inputs. *)
let test_elementwise_matches_scalar_oracle =
  qtest ~count:40 "add/sub/scalar_mul_into = Modarith oracle (bitwise)"
    QCheck2.Gen.(quad (int_range 1 6) (int_range 1 3) (int_range 26 30) (int_bound 10000))
    (fun (logn, limbs, bits, seed) ->
      let n = 1 lsl logn in
      let basis = Basis.of_primes (Prime_gen.gen_primes ~bits ~n ~count:limbs ()) in
      let rng = Rng.create ~seed in
      let poly () =
        let p = Rns_poly.zero ~n ~basis in
        for k = 0 to limbs - 1 do
          let q = Basis.value basis k and v = Rns_poly.unsafe_limb_view p k in
          for i = 0 to n - 1 do
            Limb_buf.set v i (match Rng.int rng 4 with 0 -> 0 | 1 -> q - 1 | _ -> Rng.int rng q)
          done
        done;
        p
      in
      let x = poly () and y = poly () and s = Rng.int rng 1000 - 500 in
      let sum = Rns_poly.create_like x and diff = Rns_poly.create_like x in
      let scaled = Rns_poly.create_like x in
      Rns_poly.add_into ~dst:sum x y;
      Rns_poly.sub_into ~dst:diff x y;
      Rns_poly.scalar_mul_into ~dst:scaled x s;
      List.for_all
        (fun k ->
          let md = Basis.modulus basis k in
          let get p i = Limb_buf.get (Rns_poly.unsafe_limb_view p k) i in
          List.for_all
            (fun i ->
              get sum i = Modarith.add md (get x i) (get y i)
              && get diff i = Modarith.sub md (get x i) (get y i)
              && get scaled i = Modarith.mul md (get x i) (Modarith.of_int md s))
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

(* --- Fused_mac range kernels vs scalar references --------------------------- *)

(* The keyswitch engine only ever calls these kernels on power-of-two
   tiles, so these properties are what exercises the odd tail and a
   nonzero [lo].  Buffers extend past [hi] so an out-of-range write
   shows; residues hit 0 and q - 1 as well as random values, at the
   28-bit datapath width and the 30-bit cap. *)
let fused_primes =
  lazy
    (List.map
       (fun bits -> (bits, List.hd (Prime_gen.gen_primes ~bits ~n:1024 ~count:1 ())))
       [ 28; 30 ])

let range_gen =
  QCheck2.Gen.(quad (oneofl [ 28; 30 ]) (int_bound 40) (int_bound 70) (int_bound 100000))

(* [(q, lo, hi, rng, len)] for one drawn case; [len] leaves 5 elements past [hi]. *)
let range_case (bits, lo, n, seed) =
  let q = List.assoc bits (Lazy.force fused_primes) in
  (q, lo, lo + n, Rng.create ~seed, lo + n + 5)

let edge_residue rng q =
  match Rng.int rng 4 with 0 -> 0 | 1 -> q - 1 | _ -> Rng.int rng q

let residues rng q len = Array.init len (fun _ -> edge_residue rng q)

(* [expect] outside [lo, hi) is [before]: the kernel must leave it alone. *)
let range_equal ~lo ~hi ~before ~expect got =
  Array.for_all Fun.id
    (Array.mapi (fun j v -> v = if j >= lo && j < hi then expect j else before.(j)) got)

let check_mac2 ~perm_of name =
  qtest ~count:200 name range_gen (fun case ->
      let q, lo, hi, rng, len = range_case case in
      let x = residues rng q len and b = residues rng q len and a = residues rng q len in
      let acc0 = residues rng q len and acc1 = residues rng q len in
      let perm = perm_of rng len in
      let out0 = Limb_buf.of_int_array acc0 and out1 = Limb_buf.of_int_array acc1 in
      let lx = Limb_buf.of_int_array x and lb = Limb_buf.of_int_array b in
      let la = Limb_buf.of_int_array a in
      (match perm with
      | None -> Fused_mac.mac2_range ~x:lx ~b:lb ~a:la ~acc0:out0 ~acc1:out1 ~lo ~hi
      | Some perm ->
        Fused_mac.mac2_perm_range ~perm ~x:lx ~b:lb ~a:la ~acc0:out0 ~acc1:out1 ~lo ~hi);
      let xj j = match perm with None -> x.(j) | Some p -> x.(p.(j)) in
      range_equal ~lo ~hi ~before:acc0 ~expect:(fun j -> acc0.(j) + (xj j * b.(j)))
        (Limb_buf.to_int_array out0)
      && range_equal ~lo ~hi ~before:acc1 ~expect:(fun j -> acc1.(j) + (xj j * a.(j)))
           (Limb_buf.to_int_array out1))

let test_mac2_range = check_mac2 ~perm_of:(fun _ _ -> None) "mac2_range = scalar oracle"

let test_mac2_perm_range =
  check_mac2 "mac2_perm_range = scalar oracle" ~perm_of:(fun rng len ->
      (* Fisher–Yates over the whole buffer *)
      let p = Array.init len Fun.id in
      for i = len - 1 downto 1 do
        let k = Rng.int rng (i + 1) in
        let t = p.(i) in
        p.(i) <- p.(k);
        p.(k) <- t
      done;
      Some p)

(* Accumulators as the keyswitch leaves them: one live residue plus up
   to [terms_per_reduction] raw products, all at q - 1 in the worst case. *)
let test_reduce2_range =
  qtest ~count:200 "reduce2_range = scalar oracle" range_gen (fun case ->
      let q, lo, hi, rng, len = range_case case in
      let terms = Fused_mac.terms_per_reduction ~q in
      let lazy_sum _ =
        let s = ref (edge_residue rng q) in
        for _ = 1 to 1 + Rng.int rng terms do
          s := !s + (edge_residue rng q * edge_residue rng q)
        done;
        !s
      in
      let acc0 = Array.init len lazy_sum and acc1 = Array.init len lazy_sum in
      let out0 = Limb_buf.of_int_array acc0 and out1 = Limb_buf.of_int_array acc1 in
      Fused_mac.reduce2_range ~q ~acc0:out0 ~acc1:out1 ~lo ~hi;
      range_equal ~lo ~hi ~before:acc0 ~expect:(fun j -> acc0.(j) mod q)
        (Limb_buf.to_int_array out0)
      && range_equal ~lo ~hi ~before:acc1 ~expect:(fun j -> acc1.(j) mod q)
           (Limb_buf.to_int_array out1))

(* Both into a separate destination and in place over x (dst may alias x). *)
let test_sub_mul_shoup_range =
  qtest ~count:200 "sub_mul_shoup_range = scalar oracle" range_gen (fun case ->
      let q, lo, hi, rng, len = range_case case in
      let md = Modarith.modulus q in
      let w = edge_residue rng q in
      let w_sh = Modarith.shoup md w in
      let x = residues rng q len and y = residues rng q len and d = residues rng q len in
      let expect j = Modarith.mul md (Modarith.sub md x.(j) y.(j)) w in
      let lx = Limb_buf.of_int_array x and ly = Limb_buf.of_int_array y in
      let dst = Limb_buf.of_int_array d in
      Fused_mac.sub_mul_shoup_range ~q ~w ~w_sh ~x:lx ~y:ly ~dst ~lo ~hi;
      Fused_mac.sub_mul_shoup_range ~q ~w ~w_sh ~x:lx ~y:ly ~dst:lx ~lo ~hi;
      range_equal ~lo ~hi ~before:d ~expect (Limb_buf.to_int_array dst)
      && range_equal ~lo ~hi ~before:x ~expect (Limb_buf.to_int_array lx))

(* --- zero allocation in the kernel loops ---------------------------------- *)

(* DESIGN.md ("Same-unit accessors"): the butterfly and MAC loops run
   at 0 minor words per call under every build profile, the dev
   profile's -opaque included.  A boxed value or a closure creeping
   into a loop shows here as words per call growing with N. *)
let minor_words_per_call f =
  let calls = 128 in
  for _ = 1 to 4 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. Float.of_int calls

let test_kernels_do_not_allocate () =
  let zero what f =
    let w = minor_words_per_call f in
    if w >= 1.0 then Alcotest.failf "%s: %.3f minor words per call, expected 0" what w
  in
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let rng = Rng.create ~seed:logn in
      let buf q = Limb_buf.of_int_array (random_arr rng n q) in
      List.iter
        (fun bits ->
          let q = List.hd (Prime_gen.gen_primes ~bits ~n ~count:1 ()) in
          let plan = Ntt.plan ~q ~n in
          let src = buf q and dst = Limb_buf.create n in
          let at name = Printf.sprintf "%s N=2^%d q%d" name logn bits in
          zero (at "forward_into") (fun () -> Ntt.forward_into plan ~src ~dst);
          zero (at "inverse_into") (fun () -> Ntt.inverse_into plan ~src ~dst);
          zero (at "inverse_scaled_into") (fun () ->
              Ntt.inverse_scaled_into plan ~scale:(q - 1) ~src ~dst))
        [ 28; 30 ];
      let q = List.hd (Prime_gen.gen_primes ~bits:30 ~n ~count:1 ()) in
      let x = buf q and b = buf q and a = buf q and y = buf q and dst = Limb_buf.create n in
      let acc0 = Limb_buf.create n and acc1 = Limb_buf.create n in
      let perm = Ntt.perm_array (Ntt.galois_perm ~n ~k:5) in
      let w = q - 2 in
      let w_sh = Modarith.shoup (Modarith.modulus q) w in
      let at name = Printf.sprintf "%s N=2^%d" name logn in
      (* repeated calls let the MAC accumulators wrap past max_int:
         only the allocation is measured here, not the values *)
      zero (at "mac2_range") (fun () -> Fused_mac.mac2_range ~x ~b ~a ~acc0 ~acc1 ~lo:0 ~hi:n);
      zero (at "mac2_perm_range") (fun () ->
          Fused_mac.mac2_perm_range ~perm ~x ~b ~a ~acc0 ~acc1 ~lo:0 ~hi:n);
      zero (at "reduce2_range") (fun () -> Fused_mac.reduce2_range ~q ~acc0 ~acc1 ~lo:0 ~hi:n);
      zero (at "sub_mul_shoup_range") (fun () ->
          Fused_mac.sub_mul_shoup_range ~q ~w ~w_sh ~x ~y ~dst ~lo:0 ~hi:n);
      let src_ps = Prime_gen.gen_primes ~bits:28 ~n ~count:3 () in
      let src_basis = Basis.of_primes src_ps in
      let dst_basis =
        Basis.of_primes (Prime_gen.gen_primes ~bits:30 ~n ~count:2 ~avoid:src_ps ())
      in
      let tbl = Base_conv.table ~src:src_basis ~dst:dst_basis in
      let scaled = Array.of_list (List.map buf src_ps) in
      zero (at "accumulate_column_into shares=1") (fun () ->
          Base_conv.accumulate_column_into ~shares:1 tbl ~scaled ~dst ~k:1);
      zero (at "accumulate_column_into shares=3") (fun () ->
          Base_conv.accumulate_column_into ~shares:3 tbl ~scaled ~dst ~k:1);
      let basis = Basis.of_primes (Prime_gen.gen_primes ~bits:28 ~n ~count:3 ()) in
      let x = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
      let y = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
      let dst = Rns_poly.create_like x in
      zero (at "Rns_poly.mul_into") (fun () -> Rns_poly.mul_into ~dst x y))
    [ 10; 12 ]

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
  (* tile_len: power of two, fits the 512 KiB budget, clamped to [64, n] *)
  let len = Scratch.tile_len ~streams:6 ~n:65536 () in
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
      test_elementwise_matches_scalar_oracle;
      test_inverse_scaled_matches_unfused;
      test_mac2_range;
      test_mac2_perm_range;
      test_reduce2_range;
      test_sub_mul_shoup_range;
      Alcotest.test_case "kernels do not allocate" `Quick test_kernels_do_not_allocate;
      Alcotest.test_case "scratch arena shapes" `Quick test_scratch_shapes;
      Alcotest.test_case "scratch cache tiles" `Quick test_scratch_tiles;
    ] )
