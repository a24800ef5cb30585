(* Tests for the execution engine: the domain pool, the structural
   cache key, the JSON codec, the two-tier result cache, and the
   shared name registry. *)

open Cinnamon_exec
module CC = Cinnamon_compiler.Compile_config
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator
module Json = Cinnamon_util.Json
module Registry = Cinnamon_util.Registry

(* ------------------------------------------------------------------ pool *)

let test_pool_map_order () =
  (* results come back in input order even when late jobs finish first *)
  let xs = List.init 40 Fun.id in
  let f i =
    if i mod 7 = 0 then Unix.sleepf 0.002;
    i * i
  in
  Alcotest.(check (list int)) "jobs=4" (List.map f xs) (Pool.run ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1" (List.map f xs) (Pool.run ~jobs:1 f xs)

let test_pool_sequential_fallback () =
  let p = Pool.create ~jobs:1 () in
  Alcotest.(check int) "one job" 1 (Pool.jobs p);
  (* jobs=1 runs in the caller: side effects happen in submission order *)
  let order = ref [] in
  let r = Pool.map p (fun i -> order := i :: !order; i) [ 1; 2; 3 ] in
  Pool.shutdown p;
  Alcotest.(check (list int)) "results" [ 1; 2; 3 ] r;
  Alcotest.(check (list int)) "execution order" [ 3; 2; 1 ] !order

let test_pool_resolves_default () =
  let p = Pool.create ~jobs:0 () in
  Alcotest.(check int) "recommended" (Pool.default_jobs ()) (Pool.jobs p);
  Alcotest.(check bool) "at least one" true (Pool.jobs p >= 1);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_pool_rejects_negative_jobs () =
  match Pool.create ~jobs:(-2) () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message names Pool.create" true
      (String.length msg >= 11 && String.sub msg 0 11 = "Pool.create")

let test_pool_exception_propagates () =
  let boom i = if i = 5 then failwith "job five" else i in
  (match Pool.run ~jobs:4 boom (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "first failing job" "job five" msg);
  match Pool.run ~jobs:1 boom (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "sequential too" "job five" msg

let test_pool_small_queue () =
  (* more jobs than queue slots: submission blocks, everything still runs *)
  let p = Pool.create ~queue_capacity:2 ~jobs:2 () in
  let r = Pool.map p (fun i -> i + 1) (List.init 100 Fun.id) in
  Pool.shutdown p;
  Alcotest.(check int) "all jobs ran" 100 (List.length r);
  Alcotest.(check (list int)) "ordered" (List.init 100 (fun i -> i + 1)) r

let test_pool_single_job_inline () =
  (* a one-element map has nothing to overlap with: it runs on the
     calling domain and behaves as List.map, exceptions included *)
  let p = Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let f i = ((Domain.self () :> int), i * 3) in
  let caller = (Domain.self () :> int) in
  Alcotest.(check (list (pair int int))) "runs on the caller" [ (caller, 21) ] (Pool.map p f [ 7 ]);
  Alcotest.(check (list (pair int int))) "value as List.map" (List.map f [ 7 ]) (Pool.map p f [ 7 ]);
  let boom _ = failwith "lone job" in
  let raised g = match g () with _ -> "no exception" | exception e -> Printexc.to_string e in
  Alcotest.(check string) "exception as List.map"
    (raised (fun () -> List.map boom [ 1 ]))
    (raised (fun () -> Pool.map p boom [ 1 ]));
  let xs = List.init 12 Fun.id in
  let g i =
    if i mod 5 = 0 then Unix.sleepf 0.001;
    i * i
  in
  Alcotest.(check (list int)) "multi-element maps keep input order" (List.map g xs) (Pool.map p g xs)

(* ----------------------------------------------- kernel-cache concurrency *)

module Params = Cinnamon_ckks.Params
module Keys = Cinnamon_ckks.Keys
module Eval = Cinnamon_ckks.Eval
module Encrypt = Cinnamon_ckks.Encrypt
module Rng = Cinnamon_util.Rng
module Rns_poly = Cinnamon_rns.Rns_poly
module Ntt = Cinnamon_rns.Ntt
module Basis = Cinnamon_rns.Basis
module Base_conv = Cinnamon_rns.Base_conv

(* Rotation-table race: many pool workers demand the same rotation keys
   concurrently.  Every duplicate must come back as THE published key
   (physical equality), and the raced keys must still decrypt rotations
   correctly. *)
let test_rotation_key_stress () =
  let params = Lazy.force Params.tiny in
  let rng = Rng.create ~seed:77 in
  let sk = Keys.gen_secret_key params rng in
  let pk = Keys.gen_public_key params sk rng in
  let ek = Keys.provision params sk ~rotations:[] ~conjugation:false rng in
  let rots = [ 1; 2; 3 ] in
  (* each rotation amount requested by several workers at once, each
     worker with its own RNG stream *)
  let tasks = List.concat_map (fun r -> List.init 4 (fun i -> (r, 1000 + (r * 10) + i))) rots in
  let keys =
    Pool.run ~jobs:4
      (fun (rot, seed) -> (rot, Keys.ensure_rotation_key params sk ek ~rot (Rng.create ~seed)))
      tasks
  in
  List.iter
    (fun (rot, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "rot %d: duplicate returned the published key" rot)
        true
        (k == Keys.find_rotation_key ek rot))
    keys;
  (* the surviving keys are functional: rotate a fresh ciphertext *)
  let ctx = Eval.context params ek in
  let slots = params.Params.slots in
  let xs = Array.init slots (fun i -> Float.of_int (i + 1)) in
  let ct = Encrypt.encrypt_real params pk xs (Rng.create ~seed:501) in
  List.iter
    (fun r ->
      let back = Encrypt.decrypt_real params sk (Eval.rotate ctx ct r) in
      Array.iteri
        (fun i v ->
          let expect = xs.((i + r) mod slots) in
          Alcotest.(check bool)
            (Printf.sprintf "rot %d slot %d" r i)
            true
            (Float.abs (v -. expect) < 1e-2))
        back)
    rots;
  (* rotation 0 never takes a key *)
  Alcotest.check_raises "rotation 0 rejected"
    (Invalid_argument "Keys.ensure_rotation_key: rotation 0 needs no key") (fun () ->
      ignore (Keys.ensure_rotation_key params sk ek ~rot:0 (Rng.create ~seed:1)))

(* Concurrent plan construction + NTT roundtrips across a shared Memo:
   every worker must see a consistent plan for its modulus. *)
let test_ntt_plan_concurrent () =
  let n = 64 in
  let qs = Cinnamon_rns.Prime_gen.gen_primes ~bits:28 ~n ~count:6 () in
  let tasks = List.concat_map (fun q -> List.init 3 (fun i -> (q, i))) qs in
  let ok =
    Pool.run ~jobs:4
      (fun (q, i) ->
        let plan = Ntt.plan ~q ~n in
        let rng = Rng.create ~seed:(q + i) in
        let a = Array.init n (fun _ -> Rng.int rng q) in
        let open Cinnamon_rns in
        let buf = Limb_buf.of_int_array a in
        Ntt.forward_into plan ~src:buf ~dst:buf;
        Ntt.inverse_into plan ~src:buf ~dst:buf;
        Limb_buf.to_int_array buf = a)
      tasks
  in
  Alcotest.(check bool) "all roundtrips exact" true (List.for_all Fun.id ok)

(* Base conversion under the pool is bit-identical to the sequential
   result — the lazy-reduction accumulator and the Memo-cached tables
   must not introduce any schedule dependence. *)
let test_base_conv_deterministic_parallel () =
  let n = 64 in
  let qs = Cinnamon_rns.Prime_gen.gen_primes ~bits:28 ~n ~count:4 () in
  let ps = Cinnamon_rns.Prime_gen.gen_primes ~bits:30 ~n ~count:2 ~avoid:qs () in
  let src_basis = Basis.of_primes qs and dst_basis = Basis.of_primes ps in
  let mk seed = Rns_poly.random ~n ~basis:src_basis ~domain:Rns_poly.Coeff (Rng.create ~seed) in
  let seeds = List.init 12 (fun i -> 9000 + i) in
  let sequential = List.map (fun s -> Base_conv.convert (mk s) ~dst:dst_basis) seeds in
  let parallel = Pool.run ~jobs:4 (fun s -> Base_conv.convert (mk s) ~dst:dst_basis) seeds in
  List.iter2
    (fun a b -> Alcotest.(check bool) "bitwise equal" true (Rns_poly.equal a b))
    sequential parallel

(* ------------------------------------------------------------- cache key *)

let key ?(config = CC.paper ()) ?(sim = SC.cinnamon_4) ?(kernel = "bootstrap-13") () =
  Cache_key.to_string (Cache_key.make ~config ~sim ~kernel)

let test_key_alpha_distinct () =
  let base = CC.paper () in
  Alcotest.(check bool) "alpha-only change misses" false
    (key ~config:base () = key ~config:{ base with CC.alpha = base.CC.alpha + 1 } ())

let test_key_dnum_distinct () =
  let base = CC.paper () in
  Alcotest.(check bool) "dnum-only change misses" false
    (key ~config:base () = key ~config:{ base with CC.dnum = base.CC.dnum + 1 } ())

let test_key_covers_all_behavioral_fields () =
  let base = CC.paper () in
  List.iter
    (fun (field, cfg) ->
      Alcotest.(check bool) (field ^ " keyed") false (key ~config:base () = key ~config:cfg ()))
    [
      ("chips", { base with CC.chips = base.CC.chips + 1 });
      ("group_size", { base with CC.group_size = base.CC.group_size + 1 });
      ("log_n", { base with CC.log_n = base.CC.log_n + 1 });
      ("progpar", { base with CC.progpar = not base.CC.progpar });
      ("pass_mode", { base with CC.pass_mode = CC.No_pass });
    ];
  List.iter
    (fun (field, sim) ->
      Alcotest.(check bool) (field ^ " keyed") false (key ~sim:SC.cinnamon_4 () = key ~sim ()))
    [
      ("rf_bytes", { SC.cinnamon_4 with SC.rf_bytes = SC.cinnamon_4.SC.rf_bytes * 2 });
      ("link_gbps", SC.with_link_gbps SC.cinnamon_4 512.0);
      ("sim chips", { SC.cinnamon_4 with SC.chips = 2 });
    ]

let test_key_ignores_cosmetic_name () =
  (* decorated names ("Cinnamon-4@512GB/s", ":wide") restate structural
     fields the key already covers; the name itself must not split the
     cache *)
  Alcotest.(check string) "name not keyed" (key ~sim:SC.cinnamon_4 ())
    (key ~sim:{ SC.cinnamon_4 with SC.name = "renamed" } ())

let test_key_schema_and_digest () =
  let k = Cache_key.make ~config:(CC.paper ()) ~sim:SC.cinnamon_4 ~kernel:"bootstrap-13" in
  let s = Cache_key.to_string k in
  Alcotest.(check bool) "schema tag embedded" true
    (String.length s >= String.length Cache_key.schema
    && String.sub s 0 (String.length Cache_key.schema) = Cache_key.schema);
  let d = Cache_key.digest k in
  Alcotest.(check int) "md5 hex digest" 32 (String.length d);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex char" true ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d

(* ----------------------------------------------------------------- json *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("cycles", Json.Int 123456789);
        ("seconds", Json.Float 1.5e-3);
        ("name", Json.Str "bootstrap \"13\"\n");
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Int (-1); Json.Int 0 ]) ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trips" true (v = v')
  | Error e -> Alcotest.fail e);
  match Json.of_string (Json.to_string ~compact:true v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trips" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_ints_exact () =
  (* cycle counts must survive as exact integers, not floats *)
  match Json.of_string "{\"c\": 9007199254740993}" with
  | Ok j -> Alcotest.(check (option int)) "exact" (Some 9007199254740993)
      (Option.bind (Json.member "c" j) Json.to_int)
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted " ^ s)
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* ------------------------------------------------------------ bench file *)

let with_temp_dir prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "%s_%d" prefix (Unix.getpid ()))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_bench_file_merge () =
  (* a section write keeps every other key, keeps "schema" first,
     replaces only its own key, and leaves no temp file behind *)
  with_temp_dir "cinnamon_test_bench" @@ fun dir ->
  let file = Filename.concat dir "BENCH_cinnamon.json" in
  let keys () =
    match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok (Json.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "artifact is not a JSON object"
  in
  Bench_file.merge_section ~file "serve_fleet" (fun old ->
      Alcotest.(check bool) "fresh file has no section" true (old = None);
      Json.Int 1);
  Alcotest.(check (list string))
    "fresh file gets a schema tag" [ "schema"; "serve_fleet" ] (keys ());
  Out_channel.with_open_bin file (fun oc ->
      output_string oc {|{"kernels": [1], "schema": "s", "serve_fleet": 1, "nn": 2}|});
  Bench_file.merge_section ~file "serve_fleet" (fun old ->
      Alcotest.(check bool) "old section handed over" true (old = Some (Json.Int 1));
      Json.Int 3);
  Alcotest.(check (list string))
    "other keys kept, schema first" [ "schema"; "serve_fleet"; "kernels"; "nn" ] (keys ());
  (match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j ->
    Alcotest.(check bool) "existing schema kept" true
      (Json.member "schema" j = Some (Json.Str "s"));
    Alcotest.(check bool) "section replaced" true (Json.member "serve_fleet" j = Some (Json.Int 3))
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "no temp file left" [ "BENCH_cinnamon.json" ]
    (Array.to_list (Sys.readdir dir))

(* ---------------------------------------------------------- result cache *)

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cinnamon_test_cache_%d" (Unix.getpid ()))
  in
  let saved = Result_cache.dir () in
  Result_cache.set_dir (Some dir);
  Result_cache.clear_memory ();
  Result_cache.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Result_cache.set_dir saved;
      Result_cache.clear_memory ();
      Result_cache.reset_stats ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let fake_result cycles =
  {
    Sim.cycles;
    seconds = Float.of_int cycles *. 1e-9;
    util = { Sim.compute = 0.5; memory = 0.25; network = 0.125 };
    per_chip_cycles = [| cycles; cycles - 1 |];
    per_chip_stats =
      [|
        { Sim.cs_busy = 10; cs_stall_operand = 1; cs_stall_fu = 2; cs_stall_hbm = 3;
          cs_stall_network = 4; cs_idle = 5; cs_total = 25 };
        { Sim.cs_busy = 9; cs_stall_operand = 2; cs_stall_fu = 3; cs_stall_hbm = 4;
          cs_stall_network = 5; cs_idle = 6; cs_total = 29 };
      |];
  }

let test_cache_disk_roundtrip () =
  with_temp_cache_dir @@ fun _dir ->
  let k = Cache_key.make ~config:(CC.paper ()) ~sim:SC.cinnamon_4 ~kernel:"fake" in
  let computes = ref 0 in
  let compute () = incr computes; fake_result 424242 in
  let r1 = Result_cache.find_or_compute ~key:k compute in
  (* memory hit *)
  let r2 = Result_cache.find_or_compute ~key:k compute in
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check bool) "memory hit equal" true (r1 = r2);
  (* drop memory: must reload from disk, bit-identical, no recompute *)
  Result_cache.clear_memory ();
  let r3 = Result_cache.find_or_compute ~key:k compute in
  Alcotest.(check int) "no recompute after disk reload" 1 !computes;
  Alcotest.(check bool) "disk round-trip exact" true (r1 = r3);
  let st = Result_cache.stats () in
  Alcotest.(check int) "one disk hit" 1 st.Result_cache.disk_hits;
  Alcotest.(check int) "one miss" 1 st.Result_cache.misses;
  Alcotest.(check int) "one memory hit" 1 st.Result_cache.hits

let test_cache_corrupt_entry_degrades_to_miss () =
  with_temp_cache_dir @@ fun dir ->
  let k = Cache_key.make ~config:(CC.paper ()) ~sim:SC.cinnamon_4 ~kernel:"fake2" in
  let computes = ref 0 in
  let compute () = incr computes; fake_result 7 in
  ignore (Result_cache.find_or_compute ~key:k compute);
  (* corrupt the published entry, drop memory: recompute, don't crash *)
  let path = Filename.concat dir (Cache_key.digest k ^ ".json") in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  Result_cache.clear_memory ();
  let r = Result_cache.find_or_compute ~key:k compute in
  Alcotest.(check int) "recomputed" 2 !computes;
  Alcotest.(check int) "value intact" 7 r.Sim.cycles

let test_cache_distinct_keys_distinct_entries () =
  with_temp_cache_dir @@ fun _dir ->
  let base = CC.paper () in
  let k1 = Cache_key.make ~config:base ~sim:SC.cinnamon_4 ~kernel:"fake3" in
  let k2 =
    Cache_key.make ~config:{ base with CC.alpha = base.CC.alpha + 1 } ~sim:SC.cinnamon_4
      ~kernel:"fake3"
  in
  let r1 = Result_cache.find_or_compute ~key:k1 (fun () -> fake_result 1) in
  let r2 = Result_cache.find_or_compute ~key:k2 (fun () -> fake_result 2) in
  Alcotest.(check bool) "alpha split the cache" true (r1.Sim.cycles <> r2.Sim.cycles)

(* Each domain counts its own lookups beside the process-wide counts:
   lookups made on other domains do not move the caller's, and the
   process-wide delta is the sum of every domain's. *)
let test_cache_counts_per_domain () =
  let key name = Cache_key.make ~config:(CC.paper ()) ~sim:SC.cinnamon_4 ~kernel:name in
  let lookup name = ignore (Result_cache.find_or_compute ~key:(key name) (fun () -> fake_result 5)) in
  lookup "per-domain-warm";
  let s0 = Result_cache.stats () in
  let theirs, mine =
    Result_cache.counted (fun () ->
        lookup "per-domain-warm";
        lookup "per-domain-mine";
        List.init 2 (fun d ->
            Domain.spawn (fun () ->
                snd
                  (Result_cache.counted (fun () ->
                       for _ = 1 to 3 do
                         lookup "per-domain-warm"
                       done;
                       lookup (Printf.sprintf "per-domain-theirs-%d" d)))))
        |> List.map Domain.join)
  in
  let counts (s : Result_cache.stats) =
    [ s.Result_cache.hits; s.Result_cache.misses; s.Result_cache.disk_hits; s.Result_cache.stores ]
  in
  Alcotest.(check (list int)) "the caller's own lookups" [ 1; 1; 0; 1 ] (counts mine);
  List.iter
    (fun s -> Alcotest.(check (list int)) "another domain's lookups" [ 3; 1; 0; 1 ] (counts s))
    theirs;
  Alcotest.(check (list int)) "process-wide = sum over domains"
    (List.fold_left (List.map2 ( + )) (counts mine) (List.map counts theirs))
    (counts (Result_cache.diff (Result_cache.stats ()) ~since:s0))

(* -------------------------------------------------------------- registry *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_registry_find_and_error () =
  let r = Registry.make ~what:"kernel" ~extra:[ "matvec-<n>" ] [ ("a", 1); ("b", 2) ] in
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Registry.names r);
  (match Registry.find r "b" with
  | Ok v -> Alcotest.(check int) "found" 2 v
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "mem" true (Registry.mem r "a");
  Alcotest.(check bool) "not mem" false (Registry.mem r "z");
  match Registry.find r "z" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    Alcotest.(check string) "error format"
      "unknown kernel \"z\"; known kernels: a, b, matvec-<n>" e

let test_registry_backs_specs_errors () =
  (* the ported Specs/Runner registries keep the established phrasing *)
  (match Cinnamon_workloads.Specs.find_kernel "nope" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    Alcotest.(check bool) "names offender" true (contains ~needle:"nope" e);
    Alcotest.(check bool) "lists registry" true (contains ~needle:"bootstrap-13" e);
    Alcotest.(check bool) "lists parametric family" true (contains ~needle:"matvec-<n>" e));
  match Cinnamon_workloads.Runner.find_system "cinnamon-99" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    Alcotest.(check bool) "system error lists registry" true (contains ~needle:"cinnamon-12" e)

let suite =
  ( "exec",
    [
      Alcotest.test_case "pool map order" `Quick test_pool_map_order;
      Alcotest.test_case "pool sequential fallback" `Quick test_pool_sequential_fallback;
      Alcotest.test_case "pool default jobs" `Quick test_pool_resolves_default;
      Alcotest.test_case "pool rejects negative jobs" `Quick test_pool_rejects_negative_jobs;
      Alcotest.test_case "pool exception propagation" `Quick test_pool_exception_propagates;
      Alcotest.test_case "pool bounded queue" `Quick test_pool_small_queue;
      Alcotest.test_case "pool runs a lone job inline" `Quick test_pool_single_job_inline;
      Alcotest.test_case "rotation-key stress (pool)" `Quick test_rotation_key_stress;
      Alcotest.test_case "ntt plan concurrent" `Quick test_ntt_plan_concurrent;
      Alcotest.test_case "base_conv parallel determinism" `Quick
        test_base_conv_deterministic_parallel;
      Alcotest.test_case "key: alpha distinct" `Quick test_key_alpha_distinct;
      Alcotest.test_case "key: dnum distinct" `Quick test_key_dnum_distinct;
      Alcotest.test_case "key: all behavioral fields" `Quick test_key_covers_all_behavioral_fields;
      Alcotest.test_case "key: cosmetic name excluded" `Quick test_key_ignores_cosmetic_name;
      Alcotest.test_case "key: schema + digest" `Quick test_key_schema_and_digest;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json exact ints" `Quick test_json_ints_exact;
      Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
      Alcotest.test_case "bench file section merge" `Quick test_bench_file_merge;
      Alcotest.test_case "cache disk round-trip" `Quick test_cache_disk_roundtrip;
      Alcotest.test_case "cache corrupt entry" `Quick test_cache_corrupt_entry_degrades_to_miss;
      Alcotest.test_case "cache key isolation" `Quick test_cache_distinct_keys_distinct_entries;
      Alcotest.test_case "cache counts per domain" `Quick test_cache_counts_per_domain;
      Alcotest.test_case "registry errors" `Quick test_registry_find_and_error;
      Alcotest.test_case "registry backs specs/runner" `Quick test_registry_backs_specs_errors;
    ] )
