(* Tests for the CKKS layer: encoding, encryption, homomorphic ops,
   keyswitching, linear algebra, and polynomial approximation. *)

open Cinnamon_ckks
module Rng = Cinnamon_util.Rng
module Cplx = Cinnamon_util.Cplx
module Stats = Cinnamon_util.Stats

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Shared key material at the `small` preset (N=1024, 64 slots). *)
let env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:101 in
     let sk = Keys.gen_secret_key params rng in
     let pk = Keys.gen_public_key params sk rng in
     let _, bsgs = Linear_algebra.bsgs_rotations ~n:64 in
     let rots = List.init 63 (fun i -> i + 1) @ bsgs @ Linear_algebra.sum_slots_rotations ~n:64 in
     let ek = Keys.provision params sk ~rotations:rots ~conjugation:true rng in
     (params, sk, pk, ek, Eval.context params ek))

let rand_vec ?(scale = 1.0) ~slots seed =
  let rng = Rng.create ~seed in
  Array.init slots (fun _ -> scale *. (Rng.float rng -. 0.5))

(* --- encoding -------------------------------------------------------------- *)

let test_encode_decode_roundtrip () =
  let params = Lazy.force Params.small in
  let rng = Rng.create ~seed:1 in
  let z =
    Array.init 64 (fun _ -> Cplx.make (Rng.float rng -. 0.5) (Rng.float rng -. 0.5))
  in
  let pt = Encoding.encode ~basis:params.Params.q_basis ~n:params.Params.n ~delta:params.Params.scale z in
  let back = Encoding.decode ~delta:params.Params.scale ~slots:64 pt in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "roundtrip" true (Cplx.abs (Cplx.sub x z.(i)) < 1e-5))
    back

let test_encode_full_slots () =
  let params = Lazy.force Params.small in
  let slots = params.Params.n / 2 in
  let xs = rand_vec ~slots 2 in
  let pt =
    Encoding.encode_real ~basis:params.Params.q_basis ~n:params.Params.n
      ~delta:params.Params.scale xs
  in
  let back = Encoding.decode_real ~delta:params.Params.scale ~slots pt in
  Alcotest.(check bool) "full packing" true (Stats.max_abs_error ~expected:xs ~actual:back < 1e-5)

let test_encode_is_additive () =
  let params = Lazy.force Params.small in
  let a = rand_vec ~slots:64 3 and b = rand_vec ~slots:64 4 in
  let enc v = Encoding.encode_real ~basis:params.Params.q_basis ~n:params.Params.n ~delta:params.Params.scale v in
  let sum = Cinnamon_rns.Rns_poly.add (Cinnamon_rns.Rns_poly.to_eval (enc a)) (Cinnamon_rns.Rns_poly.to_eval (enc b)) in
  let back = Encoding.decode_real ~delta:params.Params.scale ~slots:64 sum in
  let expect = Array.map2 ( +. ) a b in
  Alcotest.(check bool) "homomorphic add in encoding" true
    (Stats.max_abs_error ~expected:expect ~actual:back < 1e-4)

let test_encode_mul_is_pointwise () =
  (* polynomial product of encodings = slot-wise product of vectors *)
  let params = Lazy.force Params.small in
  let a = rand_vec ~slots:64 5 and b = rand_vec ~slots:64 6 in
  let enc v = Cinnamon_rns.Rns_poly.to_eval (Encoding.encode_real ~basis:params.Params.q_basis ~n:params.Params.n ~delta:params.Params.scale v) in
  let prod = Cinnamon_rns.Rns_poly.mul (enc a) (enc b) in
  let back = Encoding.decode_real ~delta:(params.Params.scale *. params.Params.scale) ~slots:64 prod in
  let expect = Array.map2 ( *. ) a b in
  Alcotest.(check bool) "slot-wise product" true
    (Stats.max_abs_error ~expected:expect ~actual:back < 1e-4)

(* --- encryption -------------------------------------------------------------- *)

let test_encrypt_decrypt =
  qtest ~count:5 "enc/dec roundtrip" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let params, sk, pk, _, _ = Lazy.force env in
      let rng = Rng.create ~seed:(seed + 1000) in
      let xs = rand_vec ~slots:64 seed in
      let ct = Encrypt.encrypt_real params pk xs rng in
      let back = Encrypt.decrypt_real params sk ct in
      Stats.max_abs_error ~expected:xs ~actual:back < 1e-4)

let test_encrypt_at_level () =
  let params, sk, pk, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:30 in
  let xs = rand_vec ~slots:64 31 in
  let ct = Encrypt.encrypt_real params pk ~level:3 xs rng in
  Alcotest.(check int) "level" 3 (Ciphertext.level ct);
  let back = Encrypt.decrypt_real params sk ct in
  Alcotest.(check bool) "decrypts" true (Stats.max_abs_error ~expected:xs ~actual:back < 1e-4)

let test_noise_is_small_but_nonzero () =
  let params, sk, pk, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:32 in
  let xs = Array.make 64 0.25 in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let back = Encrypt.decrypt_real params sk ct in
  let err = Stats.max_abs_error ~expected:xs ~actual:back in
  Alcotest.(check bool) "nonzero noise" true (err > 0.0);
  Alcotest.(check bool) "small noise" true (err < 1e-4)

(* --- homomorphic ops ------------------------------------------------------------ *)

let test_hom_add_sub () =
  let params, sk, pk, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:40 in
  let a = rand_vec ~slots:64 41 and b = rand_vec ~slots:64 42 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let cb = Encrypt.encrypt_real params pk b rng in
  let sum = Encrypt.decrypt_real params sk (Eval.add ca cb) in
  let diff = Encrypt.decrypt_real params sk (Eval.sub ca cb) in
  Alcotest.(check bool) "add" true
    (Stats.max_abs_error ~expected:(Array.map2 ( +. ) a b) ~actual:sum < 1e-4);
  Alcotest.(check bool) "sub" true
    (Stats.max_abs_error ~expected:(Array.map2 ( -. ) a b) ~actual:diff < 1e-4)

let test_hom_mul () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:43 in
  let a = rand_vec ~slots:64 44 and b = rand_vec ~slots:64 45 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let cb = Encrypt.encrypt_real params pk b rng in
  let prod = Eval.mul ctx ca cb in
  Alcotest.(check int) "level consumed" (Ciphertext.level ca - 1) (Ciphertext.level prod);
  let got = Encrypt.decrypt_real params sk prod in
  Alcotest.(check bool) "mul" true
    (Stats.max_abs_error ~expected:(Array.map2 ( *. ) a b) ~actual:got < 1e-3)

let test_hom_mul_chain () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:46 in
  let a = rand_vec ~slots:64 47 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let c = ref ca in
  for _ = 1 to 5 do
    c := Eval.mul ctx !c ca
  done;
  let got = Encrypt.decrypt_real params sk !c in
  let expect = Array.map (fun x -> x ** 6.0) a in
  Alcotest.(check bool) "x^6 chain" true (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

let test_hom_square () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:48 in
  let a = rand_vec ~slots:64 49 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let got = Encrypt.decrypt_real params sk (Eval.square ctx ca) in
  Alcotest.(check bool) "square" true
    (Stats.max_abs_error ~expected:(Array.map (fun x -> x *. x) a) ~actual:got < 1e-3)

let test_mul_plain_and_consts () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:50 in
  let a = rand_vec ~slots:64 51 and b = rand_vec ~slots:64 52 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let mp = Encrypt.decrypt_real params sk (Eval.mul_plain ctx ca (Array.map (fun x -> Cplx.make x 0.0) b)) in
  Alcotest.(check bool) "mul_plain" true
    (Stats.max_abs_error ~expected:(Array.map2 ( *. ) a b) ~actual:mp < 1e-3);
  let mc = Encrypt.decrypt_real params sk (Eval.mul_const ctx ca 0.375) in
  Alcotest.(check bool) "mul_const" true
    (Stats.max_abs_error ~expected:(Array.map (fun x -> 0.375 *. x) a) ~actual:mc < 1e-3);
  let ac = Encrypt.decrypt_real params sk (Eval.add_const ctx ca 1.5) in
  Alcotest.(check bool) "add_const" true
    (Stats.max_abs_error ~expected:(Array.map (fun x -> x +. 1.5) a) ~actual:ac < 1e-3);
  let mi = Encrypt.decrypt_real params sk (Eval.mul_int ca 3) in
  Alcotest.(check bool) "mul_int (no level)" true
    (Stats.max_abs_error ~expected:(Array.map (fun x -> 3.0 *. x) a) ~actual:mi < 1e-3)

let test_rotate_all_amounts () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:53 in
  let a = rand_vec ~slots:64 54 in
  let ca = Encrypt.encrypt_real params pk a rng in
  List.iter
    (fun r ->
      let got = Encrypt.decrypt_real params sk (Eval.rotate ctx ca r) in
      let expect = Array.init 64 (fun i -> a.((i + r) mod 64)) in
      Alcotest.(check bool) (Printf.sprintf "rotate %d" r) true
        (Stats.max_abs_error ~expected:expect ~actual:got < 1e-3))
    [ 1; 2; 7; 32; 63 ]

let test_rotate_composition () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:55 in
  let a = rand_vec ~slots:64 56 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let double = Eval.rotate ctx (Eval.rotate ctx ca 3) 4 in
  let single = Eval.rotate ctx ca 7 in
  let d = Encrypt.decrypt_real params sk double in
  let s = Encrypt.decrypt_real params sk single in
  Alcotest.(check bool) "rot 3 then 4 = rot 7" true (Stats.max_abs_error ~expected:s ~actual:d < 1e-3)

let test_conjugate () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:57 in
  let z = Array.init 64 (fun i -> Cplx.make (0.01 *. Float.of_int i) (0.3 -. (0.01 *. Float.of_int i))) in
  let ca = Encrypt.encrypt params pk z rng in
  let got = Encrypt.decrypt params sk (Eval.conjugate ctx ca) in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "conjugated" true (Cplx.abs (Cplx.sub x (Cplx.conj z.(i))) < 1e-3))
    got

let test_mul_by_i () =
  let params, sk, pk, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:58 in
  let z = Array.init 64 (fun i -> Cplx.make (0.01 *. Float.of_int i) 0.1) in
  let ca = Encrypt.encrypt params pk z rng in
  let got = Encrypt.decrypt params sk (Eval.mul_by_i ca) in
  Array.iteri
    (fun i x ->
      let expect = Cplx.mul (Cplx.make 0.0 1.0) z.(i) in
      Alcotest.(check bool) "times i" true (Cplx.abs (Cplx.sub x expect) < 1e-3))
    got

let test_rescale_scale_tracking () =
  let params, _, pk, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:59 in
  let ca = Encrypt.encrypt_real params pk (rand_vec ~slots:64 60) rng in
  let q_top = Cinnamon_rns.Basis.value (Ciphertext.basis ca) (Ciphertext.level ca) in
  let r = Eval.rescale ca in
  Alcotest.(check int) "level drop" (Ciphertext.level ca - 1) (Ciphertext.level r);
  Alcotest.(check (float 1e-6)) "scale divided"
    (Ciphertext.scale ca /. Float.of_int q_top)
    (Ciphertext.scale r)

let test_adjust_scale_exact () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:61 in
  let a = rand_vec ~slots:64 62 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let adj = Eval.adjust_scale ctx ca ~target_level:5 ~target_scale:params.Params.scale in
  Alcotest.(check int) "target level" 5 (Ciphertext.level adj);
  Alcotest.(check (float 1e-3)) "target scale" params.Params.scale (Ciphertext.scale adj);
  let got = Encrypt.decrypt_real params sk adj in
  Alcotest.(check bool) "value preserved" true (Stats.max_abs_error ~expected:a ~actual:got < 1e-3)

let test_keyswitch_relinearizes () =
  let params, sk, _, ek, _ = Lazy.force env in
  let rng = Rng.create ~seed:63 in
  let c = Cinnamon_rns.Rns_poly.random ~n:params.Params.n ~basis:params.Params.q_basis ~domain:Cinnamon_rns.Rns_poly.Eval rng in
  let k0, k1 = Cinnamon_oracle.Keyswitch.keyswitch params ek.Keys.relin c in
  let s = Keys.sk_over sk params.Params.q_basis in
  let lhs = Cinnamon_rns.Rns_poly.add k0 (Cinnamon_rns.Rns_poly.mul k1 s) in
  let rhs = Cinnamon_rns.Rns_poly.mul c (Cinnamon_rns.Rns_poly.mul s s) in
  let diff = Cinnamon_rns.Rns_poly.sub lhs rhs in
  let max_err = ref 0.0 in
  for i = 0 to params.Params.n - 1 do
    max_err := max !max_err (Float.abs (Cinnamon_rns.Rns_poly.coeff_float diff i))
  done;
  (* error must be keyswitch noise, many orders below Q (2^237) *)
  Alcotest.(check bool) "keyswitch noise small" true (!max_err < 1e12)

let test_keyswitch_at_lower_level () =
  let params, sk, _, ek, _ = Lazy.force env in
  let rng = Rng.create ~seed:64 in
  let basis = Params.basis_at_level params 4 in
  let c = Cinnamon_rns.Rns_poly.random ~n:params.Params.n ~basis ~domain:Cinnamon_rns.Rns_poly.Eval rng in
  let k0, k1 = Cinnamon_oracle.Keyswitch.keyswitch params ek.Keys.relin c in
  let s = Keys.sk_over sk basis in
  let lhs = Cinnamon_rns.Rns_poly.add k0 (Cinnamon_rns.Rns_poly.mul k1 s) in
  let rhs = Cinnamon_rns.Rns_poly.mul c (Cinnamon_rns.Rns_poly.mul s s) in
  let diff = Cinnamon_rns.Rns_poly.sub lhs rhs in
  let max_err = ref 0.0 in
  for i = 0 to params.Params.n - 1 do
    max_err := max !max_err (Float.abs (Cinnamon_rns.Rns_poly.coeff_float diff i))
  done;
  Alcotest.(check bool) "works below top level" true (!max_err < 1e12)

(* --- linear algebra -------------------------------------------------------------- *)

let random_matrix ~slots seed =
  let rng = Rng.create ~seed in
  Array.init slots (fun _ -> Array.init slots (fun _ -> Cplx.make (Rng.float rng -. 0.5) 0.0))

let test_matvec_direct () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:70 in
  let m = random_matrix ~slots:64 71 in
  let v = Array.map (fun x -> Cplx.make x 0.0) (rand_vec ~slots:64 72) in
  let ct = Encrypt.encrypt params pk v rng in
  let got = Encrypt.decrypt_real params sk (Linear_algebra.matvec ctx m ct) in
  let expect = Array.map Cplx.re (Linear_algebra.matvec_plain m v) in
  Alcotest.(check bool) "direct" true (Stats.max_abs_error ~expected:expect ~actual:got < 5e-3)

let test_matvec_bsgs_matches () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:73 in
  let m = random_matrix ~slots:64 74 in
  let v = Array.map (fun x -> Cplx.make x 0.0) (rand_vec ~slots:64 75) in
  let ct = Encrypt.encrypt params pk v rng in
  let got = Encrypt.decrypt_real params sk (Linear_algebra.matvec_bsgs ctx m ct) in
  let expect = Array.map Cplx.re (Linear_algebra.matvec_plain m v) in
  Alcotest.(check bool) "bsgs" true (Stats.max_abs_error ~expected:expect ~actual:got < 5e-3)

let test_sum_slots () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:76 in
  let a = rand_vec ~slots:64 77 in
  let ct = Encrypt.encrypt_real params pk a rng in
  let got = Encrypt.decrypt_real params sk (Linear_algebra.sum_slots ctx ct) in
  let total = Array.fold_left ( +. ) 0.0 a in
  Array.iter (fun v -> Alcotest.(check bool) "sum in each slot" true (Float.abs (v -. total) < 1e-2)) got

let test_dot_product () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:78 in
  let a = rand_vec ~slots:64 79 and b = rand_vec ~slots:64 80 in
  let ca = Encrypt.encrypt_real params pk a rng in
  let cb = Encrypt.encrypt_real params pk b rng in
  let got = Encrypt.decrypt_real params sk (Linear_algebra.dot ctx ca cb) in
  let expect = List.fold_left ( +. ) 0.0 (List.map2 ( *. ) (Array.to_list a) (Array.to_list b)) in
  Alcotest.(check bool) "dot" true (Float.abs (got.(0) -. expect) < 1e-2)

(* --- approximation ------------------------------------------------------------- *)

let test_chebyshev_fit_accuracy () =
  let coeffs = Approx.chebyshev_fit ~a:(-1.0) ~b:1.0 ~deg:15 exp in
  for i = 0 to 50 do
    let x = -1.0 +. (2.0 *. Float.of_int i /. 50.0) in
    Alcotest.(check bool) "fit err" true
      (Float.abs (Approx.chebyshev_eval_plain ~a:(-1.0) ~b:1.0 coeffs x -. exp x) < 1e-8)
  done

let test_chebyshev_basis_polys () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:81 in
  let xs = Array.init 64 (fun i -> -1.0 +. (2.0 *. Float.of_int i /. 63.0)) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  List.iter
    (fun k ->
      let coeffs = Array.init (k + 1) (fun i -> if i = k then 1.0 else 0.0) in
      let got = Encrypt.decrypt_real params sk (Approx.chebyshev_eval ctx ct coeffs) in
      let expect = Array.map (fun x -> cos (Float.of_int k *. acos x)) xs in
      Alcotest.(check bool) (Printf.sprintf "T_%d" k) true
        (Stats.max_abs_error ~expected:expect ~actual:got < 0.02))
    [ 1; 2; 5; 13 ]

let test_gelu () =
  let params, sk, pk, _, ctx = Lazy.force env in
  let rng = Rng.create ~seed:82 in
  let xs = Array.init 64 (fun i -> -4.0 +. (8.0 *. Float.of_int i /. 63.0)) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let got = Encrypt.decrypt_real params sk (Approx.eval_gelu ctx ct ~range:4.0 ~deg:31) in
  let expect = Array.map Approx.gelu xs in
  Alcotest.(check bool) "gelu" true (Stats.max_abs_error ~expected:expect ~actual:got < 0.05)

let test_newton_raphson_inverse () =
  let params = Params.make ~log_n:10 ~levels:14 ~dnum:4 ~slots:16 () in
  let rng = Rng.create ~seed:83 in
  let sk = Keys.gen_secret_key params rng in
  let pk = Keys.gen_public_key params sk rng in
  let ek = Keys.provision params sk ~rotations:[] ~conjugation:false rng in
  let ctx = Eval.context params ek in
  let vs = Array.init 16 (fun i -> 0.5 +. (1.5 *. Float.of_int i /. 15.0)) in
  let cv = Encrypt.encrypt_real params pk vs rng in
  let got = Encrypt.decrypt_real params sk (Approx.eval_inverse ctx cv ~init:0.66 ~iters:4) in
  let expect = Array.map (fun v -> 1.0 /. v) vs in
  Alcotest.(check bool) "1/x" true (Stats.max_abs_error ~expected:expect ~actual:got < 0.02)

let test_newton_raphson_inv_sqrt () =
  let params = Params.make ~log_n:10 ~levels:14 ~dnum:4 ~slots:16 () in
  let rng = Rng.create ~seed:84 in
  let sk = Keys.gen_secret_key params rng in
  let pk = Keys.gen_public_key params sk rng in
  let ek = Keys.provision params sk ~rotations:[] ~conjugation:false rng in
  let ctx = Eval.context params ek in
  let vs = Array.init 16 (fun i -> 0.7 +. (0.6 *. Float.of_int i /. 15.0)) in
  let cv = Encrypt.encrypt_real params pk vs rng in
  let got = Encrypt.decrypt_real params sk (Approx.eval_inv_sqrt ctx cv ~init:1.0 ~iters:3) in
  let expect = Array.map (fun v -> 1.0 /. sqrt v) vs in
  Alcotest.(check bool) "1/sqrt x" true (Stats.max_abs_error ~expected:expect ~actual:got < 0.02)

let suite =
  ( "ckks",
    [
      Alcotest.test_case "encode/decode" `Quick test_encode_decode_roundtrip;
      Alcotest.test_case "full-slot packing" `Quick test_encode_full_slots;
      Alcotest.test_case "encoding additive" `Quick test_encode_is_additive;
      Alcotest.test_case "encoding multiplicative" `Quick test_encode_mul_is_pointwise;
      test_encrypt_decrypt;
      Alcotest.test_case "encrypt at level" `Quick test_encrypt_at_level;
      Alcotest.test_case "noise profile" `Quick test_noise_is_small_but_nonzero;
      Alcotest.test_case "hom add/sub" `Quick test_hom_add_sub;
      Alcotest.test_case "hom mul" `Quick test_hom_mul;
      Alcotest.test_case "mul chain depth 5" `Quick test_hom_mul_chain;
      Alcotest.test_case "hom square" `Quick test_hom_square;
      Alcotest.test_case "plain/const ops" `Quick test_mul_plain_and_consts;
      Alcotest.test_case "rotations" `Quick test_rotate_all_amounts;
      Alcotest.test_case "rotation composes" `Quick test_rotate_composition;
      Alcotest.test_case "conjugate" `Quick test_conjugate;
      Alcotest.test_case "mul by i (monomial)" `Quick test_mul_by_i;
      Alcotest.test_case "rescale scale tracking" `Quick test_rescale_scale_tracking;
      Alcotest.test_case "adjust_scale exact" `Quick test_adjust_scale_exact;
      Alcotest.test_case "keyswitch correctness" `Quick test_keyswitch_relinearizes;
      Alcotest.test_case "keyswitch below top" `Quick test_keyswitch_at_lower_level;
      Alcotest.test_case "matvec direct" `Slow test_matvec_direct;
      Alcotest.test_case "matvec bsgs" `Slow test_matvec_bsgs_matches;
      Alcotest.test_case "sum_slots" `Quick test_sum_slots;
      Alcotest.test_case "dot product" `Quick test_dot_product;
      Alcotest.test_case "chebyshev fit" `Quick test_chebyshev_fit_accuracy;
      Alcotest.test_case "chebyshev basis" `Slow test_chebyshev_basis_polys;
      Alcotest.test_case "gelu" `Slow test_gelu;
      Alcotest.test_case "NR inverse" `Slow test_newton_raphson_inverse;
      Alcotest.test_case "NR inv sqrt" `Slow test_newton_raphson_inv_sqrt;
    ] )
