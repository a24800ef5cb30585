(* Tests for Cinnamon_tenant and the multi-tenant fleet: the key-store
   lifecycle state machine (illegal transitions are typed errors, not
   states), lease-pinned epochs across rotations, the byte-weighted
   key cache's corrected thrash accounting, the transcipher upload
   model, and the fleet-level determinism pin with tenancy on. *)

open Cinnamon_tenant
module Fleet = Cinnamon_fleet
module Serve = Cinnamon_serve
module Exec = Cinnamon_exec
module CC = Cinnamon_compiler.Compile_config

let profile = { Key_set.kp_limbs = 10; kp_dnum = 3; kp_limb_bytes = 1024 }

let store_cfg ?(period = infinity) () =
  {
    Store.sc_profile = profile;
    sc_rotations = [ 1; 4 ];
    sc_conjugation = false;
    sc_rotation_period_s = period;
  }

let t0 = Tenant_id.make 0
let t1 = Tenant_id.make 1
let e0 = Epoch.zero
let e1 = Epoch.next Epoch.zero

let check_err name expected = function
  | Error e -> Alcotest.(check string) name expected (Store.error_to_string e)
  | Ok _ -> Alcotest.fail (name ^ ": expected a typed refusal")

(* --- typed ids and key-set arithmetic -------------------------------- *)

let test_ids_and_key_bytes () =
  Alcotest.(check string) "tenant rendering" "t7" (Tenant_id.to_string (Tenant_id.make 7));
  Alcotest.(check string) "epoch rendering" "e1" (Epoch.to_string e1);
  Alcotest.check_raises "negative tenant rejected"
    (Invalid_argument "Tenant_id.make: tenant ids are non-negative") (fun () ->
      ignore (Tenant_id.make (-1)));
  (* switch key = dnum digit pairs over Q_L ∪ P *)
  Alcotest.(check int) "switch key bytes" (3 * 2 * 10 * 1024) (Key_set.switch_key_bytes profile);
  let ks = Key_set.make profile ~tenant:t0 ~epoch:e0 ~rotations:[ 1; 4 ] ~conjugation:true in
  (* relin + 2 rotations + conjugation = 4 switch keys *)
  Alcotest.(check int) "set bytes" (4 * Key_set.switch_key_bytes profile) (Key_set.bytes ks);
  (* at paper parameters one switch key is ~110 MB *)
  let paper = Key_set.profile_of_config (CC.paper ()) in
  let mb = Key_set.switch_key_bytes paper / (1024 * 1024) in
  Alcotest.(check bool) (Printf.sprintf "paper switch key ~110MB (got %dMB)" mb) true
    (mb > 80 && mb < 140)

(* --- lifecycle: illegal transitions are typed errors ------------------ *)

let test_lifecycle_illegal_transitions () =
  let st = Store.create (store_cfg ()) in
  (* unprovisioned tenants are unrepresentable: every op refuses *)
  check_err "lease before provision" "t0 not provisioned" (Store.lease st t0);
  check_err "rotate before provision" "t0 not provisioned" (Store.begin_rotation st t0 ~now_s:0.0);
  let ks = Result.get_ok (Store.provision st t0 ~now_s:0.0) in
  Alcotest.(check bool) "provision starts at epoch zero" true (Epoch.equal (Key_set.epoch ks) e0);
  check_err "provision twice" "t0 already provisioned" (Store.provision st t0 ~now_s:1.0);
  (* rotate during drain: begin_rotation while already rotating *)
  ignore (Result.get_ok (Store.begin_rotation st t0 ~now_s:1.0));
  check_err "rotate during rotation drain" "t0 is rotating: old epoch still draining"
    (Store.begin_rotation st t0 ~now_s:2.0);
  (* retire is refused mid-rotation ... *)
  check_err "retire mid-rotation" "t0 is rotating: old epoch still draining"
    (Store.retire st t0 ~now_s:2.0);
  (* ... and refused under outstanding leases *)
  ignore (Result.get_ok (Store.provision st t1 ~now_s:0.0));
  let held = Result.get_ok (Store.lease st t1) in
  check_err "retire under leases" "t1 is rotating: old epoch still draining"
    (Store.retire st t1 ~now_s:3.0);
  Store.release st t1 (Key_set.epoch held);
  (match Store.retire st t1 ~now_s:3.0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("retire after release: " ^ Store.error_to_string e));
  (* execute against a retired tenant: typed, carries no key material *)
  check_err "lease after retire" "t1 retired: keys destroyed" (Store.lease st t1);
  check_err "lookup after retire" "t1 retired: keys destroyed" (Store.key_set_for st t1 e0);
  check_err "re-provision after retire" "t1 already provisioned" (Store.provision st t1 ~now_s:4.0)

let test_stale_epoch_rejected () =
  let st = Store.create (store_cfg ()) in
  ignore (Result.get_ok (Store.provision st t0 ~now_s:0.0));
  ignore (Result.get_ok (Store.begin_rotation st t0 ~now_s:1.0));
  (* no leases on e0: the next tick completes the rotation *)
  let evs = Store.tick st ~now_s:2.0 in
  Alcotest.(check int) "rotation completed" 1 (List.length evs);
  (match Store.key_set_for st t0 e0 with
  | Error (Store.Stale_epoch { st_wanted; st_live; _ }) ->
    Alcotest.(check bool) "stale epoch is e0" true (Epoch.equal st_wanted e0);
    Alcotest.(check (list string)) "live epoch is e1" [ "e1" ] (List.map Epoch.to_string st_live)
  | _ -> Alcotest.fail "expected Stale_epoch for the rotated-out epoch");
  match Store.key_set_for st t0 e1 with
  | Ok ks -> Alcotest.(check bool) "new epoch live" true (Epoch.equal (Key_set.epoch ks) e1)
  | Error e -> Alcotest.fail (Store.error_to_string e)

let test_rotation_waits_for_leases () =
  (* the deterministic-rotation core: a rotation started while work is
     in flight only completes once the old epoch's leases drain, and
     in-flight work keeps executing against its stamped epoch *)
  let st = Store.create (store_cfg ~period:10.0 ()) in
  ignore (Result.get_ok (Store.provision st t0 ~now_s:0.0));
  let inflight = Result.get_ok (Store.lease st t0) in
  Alcotest.(check bool) "leased on e0" true (Epoch.equal (Key_set.epoch inflight) e0);
  (* period elapses: tick starts the rotation on schedule *)
  let evs = Store.tick st ~now_s:10.0 in
  Alcotest.(check bool) "rotation started on the clock" true
    (List.exists
       (fun (e : Store.event) ->
         match e.Store.ev_kind with `Rotation_started _ -> true | _ -> false)
       evs);
  (* old epoch still leased: further ticks must NOT complete it *)
  Alcotest.(check int) "drain holds while leased" 0 (List.length (Store.tick st ~now_s:11.0));
  (* in-flight work still resolves its stamped epoch *)
  (match Store.key_set_for st t0 e0 with
  | Ok ks -> Alcotest.(check bool) "old epoch still live for in-flight" true
               (Epoch.equal (Key_set.epoch ks) e0)
  | Error e -> Alcotest.fail (Store.error_to_string e));
  (* NEW admissions lease the incoming epoch *)
  let fresh = Result.get_ok (Store.lease st t0) in
  Alcotest.(check bool) "new lease binds the next epoch" true
    (Epoch.equal (Key_set.epoch fresh) e1);
  Store.release st t0 e1;
  (* release the in-flight lease: now the drain can finish *)
  Store.release st t0 e0;
  let evs = Store.tick st ~now_s:12.0 in
  Alcotest.(check bool) "rotation completes once drained" true
    (List.exists
       (fun (e : Store.event) ->
         match e.Store.ev_kind with `Rotation_completed _ -> true | _ -> false)
       evs);
  check_err "old epoch rotated out" "t0 epoch e0 rotated out (live: e1)"
    (Store.key_set_for st t0 e0);
  let s = Store.stats st in
  Alcotest.(check int) "one started" 1 s.Store.st_rotations_started;
  Alcotest.(check int) "one completed" 1 s.Store.st_rotations_completed;
  Alcotest.(check int) "none rotating now" 0 s.Store.st_rotating_now

let test_release_accounting () =
  let st = Store.create (store_cfg ()) in
  ignore (Result.get_ok (Store.provision st t0 ~now_s:0.0));
  Alcotest.check_raises "release without lease is an accounting bug"
    (Invalid_argument "Store.release: no outstanding lease for this epoch") (fun () ->
      Store.release st t0 e0)

(* An idle tick — nothing due, nothing draining — visits no tenant,
   so it costs the same however many tenants are provisioned. *)
let test_idle_tick_allocation () =
  let idle_words tenants =
    let st = Store.create (store_cfg ~period:1000.0 ()) in
    for i = 0 to tenants - 1 do
      ignore (Result.get_ok (Store.provision st (Tenant_id.make i) ~now_s:(Float.of_int i)))
    done;
    let calls = 256 in
    for _ = 1 to 4 do
      ignore (Store.tick st ~now_s:1.0)
    done;
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Store.tick st ~now_s:1.0)
    done;
    (Gc.minor_words () -. before) /. Float.of_int calls
  in
  let small = idle_words 16 and large = idle_words 256 in
  if Float.abs (large -. small) >= 1.0 then
    Alcotest.failf "idle Store.tick: %.1f minor words per call at 16 tenants, %.1f at 256" small
      large

(* --- store = full-scan reference on random lifecycles ---------------- *)

(* Random provision / lease / release / rotate / retire / tick
   sequences over up to 300 tenants, on a clock that jumps back and
   forth and is now and then nan; [Store] and [Store_ref] (every tick scans every tenant in
   provision order) must return equal results, events and stats. *)
type store_op =
  | Provision of int * float
  | Lease of int
  | Release_held of int (* the k-th outstanding lease, mod their count *)
  | Release_raw of int * int (* (tenant, epoch): usually no lease *)
  | Key_set_for of int * int
  | Begin_rotation of int * float
  | Retire of int * float
  | Tick of float

let store_op_to_string = function
  | Provision (t, s) -> Printf.sprintf "provision t%d @%g" t s
  | Lease t -> Printf.sprintf "lease t%d" t
  | Release_held k -> Printf.sprintf "release held #%d" k
  | Release_raw (t, e) -> Printf.sprintf "release t%d e%d" t e
  | Key_set_for (t, e) -> Printf.sprintf "key_set_for t%d e%d" t e
  | Begin_rotation (t, s) -> Printf.sprintf "begin_rotation t%d @%g" t s
  | Retire (t, s) -> Printf.sprintf "retire t%d @%g" t s
  | Tick s -> Printf.sprintf "tick @%g" s

let gen_store_case =
  let open QCheck2.Gen in
  let clock =
    frequency [ (30, map (fun q -> Float.of_int q /. 4.0) (int_bound 120)); (1, pure Float.nan) ]
  in
  let* tenants = int_range 1 300 in
  let tenant = int_bound (tenants - 1) in
  let op =
    frequency
      [
        (4, map2 (fun t s -> Provision (t, s)) tenant clock);
        (4, map (fun t -> Lease t) tenant);
        (4, map (fun k -> Release_held k) (int_bound 1000));
        (1, map2 (fun t e -> Release_raw (t, e)) tenant (int_bound 3));
        (1, map2 (fun t e -> Key_set_for (t, e)) tenant (int_bound 3));
        (1, map2 (fun t s -> Begin_rotation (t, s)) tenant clock);
        (1, map2 (fun t s -> Retire (t, s)) tenant clock);
        (4, map (fun s -> Tick s) clock);
      ]
  in
  triple (oneofl [ 1.0; 2.5; 7.0; infinity ]) (pure tenants)
    (list_size (int_range 1 400) op)

let store_matches_ref (period, _, ops) =
  let module R = Cinnamon_oracle.Store_ref in
  let cfg = store_cfg ~period () in
  let st = Store.create cfg and rf = R.create cfg in
  let rec nth_epoch n = if n = 0 then Epoch.zero else Epoch.next (nth_epoch (n - 1)) in
  let ks k =
    Printf.sprintf "%s/%s/%d"
      (Tenant_id.to_string (Key_set.tenant k))
      (Epoch.to_string (Key_set.epoch k))
      (Key_set.bytes k)
  in
  let res f = function Ok x -> "ok " ^ f x | Error e -> Store.error_to_string e in
  let events evs =
    String.concat ";"
      (List.map
         (fun (e : Store.event) ->
           Printf.sprintf "%s@%g:%s" (Tenant_id.to_string e.Store.ev_tenant) e.Store.ev_at_s
             (match e.Store.ev_kind with
             | `Rotation_started (a, b) -> Epoch.to_string a ^ ">" ^ Epoch.to_string b
             | `Rotation_completed b -> "done " ^ Epoch.to_string b))
         evs)
  in
  let raised f = match f () with () -> "()" | exception Invalid_argument m -> m in
  let held = ref [] in
  List.for_all
    (fun op ->
      let tid = Tenant_id.make in
      let a, b =
        match op with
        | Provision (t, s) ->
          (res ks (Store.provision st (tid t) ~now_s:s), res ks (R.provision rf (tid t) ~now_s:s))
        | Lease t ->
          let a = Store.lease st (tid t) and b = R.lease rf (tid t) in
          (match b with Ok k -> held := (tid t, Key_set.epoch k) :: !held | Error _ -> ());
          (res ks a, res ks b)
        | Release_held k -> (
          match !held with
          | [] -> ("()", "()")
          | l ->
            let t, e = List.nth l (k mod List.length l) in
            held := List.filteri (fun i _ -> i <> k mod List.length l) l;
            (raised (fun () -> Store.release st t e), raised (fun () -> R.release rf t e)))
        | Release_raw (t, e) ->
          ( raised (fun () -> Store.release st (tid t) (nth_epoch e)),
            raised (fun () -> R.release rf (tid t) (nth_epoch e)) )
        | Key_set_for (t, e) ->
          ( res ks (Store.key_set_for st (tid t) (nth_epoch e)),
            res ks (R.key_set_for rf (tid t) (nth_epoch e)) )
        | Begin_rotation (t, s) ->
          ( res ks (Store.begin_rotation st (tid t) ~now_s:s),
            res ks (R.begin_rotation rf (tid t) ~now_s:s) )
        | Retire (t, s) ->
          ( res (fun () -> "") (Store.retire st (tid t) ~now_s:s),
            res (fun () -> "") (R.retire rf (tid t) ~now_s:s) )
        | Tick s -> (events (Store.tick st ~now_s:s), events (R.tick rf ~now_s:s))
      in
      if a <> b then
        QCheck2.Test.fail_reportf "%s: store %S, reference %S" (store_op_to_string op) a b
      else if Store.stats st <> R.stats rf then
        QCheck2.Test.fail_reportf "%s: stats differ" (store_op_to_string op)
      else true)
    ops

let test_store_matches_ref =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"store = full-scan reference (random lifecycles)"
       ~print:(fun (period, tenants, ops) ->
         Printf.sprintf "period %g, %d tenants:\n%s" period tenants
           (String.concat "\n" (List.map store_op_to_string ops)))
       gen_store_case store_matches_ref)

(* --- key cache: byte weighting and the corrected thrash count --------- *)

let entry ?(tenant = 0) ?(epoch = 0) compat =
  let rec nth_epoch n = if n = 0 then Epoch.zero else Epoch.next (nth_epoch (n - 1)) in
  { Fleet.Key_cache.en_tenant = Tenant_id.make tenant; en_epoch = nth_epoch epoch; en_compat = compat }

let test_key_cache_byte_weighted () =
  let open Fleet.Key_cache in
  let c = create ~capacity_bytes:100 in
  (* one big tenant evicts two small ones: byte arithmetic, not slots *)
  Alcotest.(check bool) "small a misses" false (touch c (entry ~tenant:0 "k") ~bytes:30);
  Alcotest.(check bool) "small b misses" false (touch c (entry ~tenant:1 "k") ~bytes:30);
  Alcotest.(check bool) "big c misses" false (touch c (entry ~tenant:2 "k") ~bytes:80);
  Alcotest.(check int) "both smalls evicted" 2 (evictions c);
  Alcotest.(check bool) "big resident" true (mem c (entry ~tenant:2 "k"));
  Alcotest.(check bool) "small a gone" false (mem c (entry ~tenant:0 "k"));
  Alcotest.(check int) "loaded = sum of miss bytes" 140 (loaded_bytes c);
  (* epoch is part of the identity: a rotated key set is cold *)
  Alcotest.(check bool) "same tenant, new epoch is cold" false
    (mem c (entry ~tenant:2 ~epoch:1 "k"))

let test_key_cache_thrash_accounting () =
  (* the fixed undercount: an entry larger than the whole budget never
     becomes resident, so EVERY dispatch of it is a miss that streams
     its bytes — the old slot cache "inserted" it and then alternated
     hit/miss, hiding half the reload traffic *)
  let open Fleet.Key_cache in
  let c = create ~capacity_bytes:50 in
  for _ = 1 to 4 do
    ignore (touch c (entry ~tenant:0 "big") ~bytes:80)
  done;
  Alcotest.(check int) "oversized: all four dispatches miss" 4 (misses c);
  Alcotest.(check int) "no phantom hits" 0 (hits c);
  Alcotest.(check int) "every reload counted" 320 (loaded_bytes c);
  Alcotest.(check bool) "never resident" false (mem c (entry ~tenant:0 "big"));
  Alcotest.(check (list string)) "resident list empty" []
    (List.map entry_to_string (resident c));
  (* contrast: a fitting entry thrashed against another fitting one
     still alternates (that part of the old semantics was right) *)
  let c = create ~capacity_bytes:50 in
  ignore (touch c (entry ~tenant:0 "k") ~bytes:40);
  ignore (touch c (entry ~tenant:1 "k") ~bytes:40);
  Alcotest.(check bool) "a evicted by b" false (mem c (entry ~tenant:0 "k"));
  Alcotest.(check bool) "b resident" true (mem c (entry ~tenant:1 "k"))

(* --- transcipher upload model ---------------------------------------- *)

let test_transcipher_upload_model () =
  let up = Transcipher.upload_of_config (CC.paper ()) in
  (* sym upload = N/2 slot values at 8 bytes; CKKS = 2 polys x top limbs *)
  Alcotest.(check bool) "sym is dramatically smaller" true
    (up.Transcipher.up_sym_bytes * 50 < up.Transcipher.up_ckks_bytes);
  let x = Transcipher.savings_x up in
  Alcotest.(check bool) (Printf.sprintf "paper-scale savings ~100x (got %.0fx)" x) true
    (x > 50.0 && x < 200.0)

(* --- fleet integration: tenancy end-to-end ---------------------------- *)

let paper_tenancy ?(period = infinity) ?(capacity_sets = 2.0) () =
  let profile = Key_set.profile_of_config (CC.paper ()) in
  let set_bytes =
    Key_set.bytes
      (Key_set.make profile ~tenant:t0 ~epoch:e0 ~rotations:[ 1; 4 ] ~conjugation:false)
  in
  {
    Fleet.Fleet.tn_store =
      {
        Store.sc_profile = profile;
        sc_rotations = [ 1; 4 ];
        sc_conjugation = false;
        sc_rotation_period_s = period;
      };
    tn_key_capacity_bytes = int_of_float (capacity_sets *. Float.of_int set_bytes);
    tn_key_load_s = 0.1 *. Float.of_int set_bytes /. 1e9;
    tn_transcipher_s = 0.01;
    tn_upload = Transcipher.upload_of_config (CC.paper ());
  }

let capacity =
  { Serve.Node.workers = 2; queue_capacity = 32; max_batch = 4; max_attempts = 3; drain_after_s = None }

let tenant_trace ?(requests = 150) ?(tenants = 8) ~rate () =
  Fleet.Trace.generate
    {
      Fleet.Trace.tr_shape = Fleet.Trace.Poisson { rate_rps = rate };
      tr_requests = requests;
      tr_seed = 11;
      tr_deadline_factor = 20.0;
      tr_compile = CC.paper ();
      tr_tenants = tenants;
      tr_tenant_skew = 1.0;
    }
    ~classes:
      [
        ({ Serve.Loadgen.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.7 }, 0.5);
        ({ Serve.Loadgen.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.3 }, 0.5);
      ]

let const_node ~capacity _id =
  Serve.Node.make ~capacity
    ~execute:(fun ~now_s:_ (b : Serve.Batcher.batch) ->
      0.3 +. (0.05 *. Float.of_int (List.length b.Serve.Batcher.requests)))
    ()

let run_tenant_fleet ?pool ?(period = infinity) ~policy () =
  let cfg =
    {
      Fleet.Fleet.default_config with
      Fleet.Fleet.fc_nodes = 3;
      fc_policy = policy;
      fc_tenancy = paper_tenancy ~period ();
    }
  in
  Test_serve.run_collecting ?pool cfg ~make_node:(const_node ~capacity)
    ~arrivals:(tenant_trace ~rate:6.0 ())

let test_fleet_rotation_mid_flight () =
  (* rotations fire mid-trace on the virtual clock; leases pin
     in-flight epochs, so every request completes and rotations both
     start and finish during the run *)
  let r, responses = run_tenant_fleet ~period:5.0 ~policy:Fleet.Router.Locality () in
  let tr = r.Fleet.Fleet.fr_tenants in
  let report =
    Serve.Slo.report r.Fleet.Fleet.fr_slo
      ~duration_s:(Float.max r.Fleet.Fleet.fr_makespan_s 1e-9)
      ~compiles:0 ~cache_hits:0
  in
  Alcotest.(check int) "every request terminal" 150 report.Serve.Slo.rp_offered;
  Alcotest.(check int) "no tenant rejections" 0 report.Serve.Slo.rp_rejected_tenant;
  Alcotest.(check int) "all eight tenants provisioned" 8
    tr.Fleet.Fleet.tr_store.Store.st_provisioned;
  Alcotest.(check bool) "rotations started mid-trace" true
    (tr.Fleet.Fleet.tr_store.Store.st_rotations_started > 0);
  Alcotest.(check bool) "rotations completed mid-trace" true
    (tr.Fleet.Fleet.tr_store.Store.st_rotations_completed > 0);
  Alcotest.(check bool) "rotation events recorded" true (tr.Fleet.Fleet.tr_events <> []);
  (* epochs advanced: some responses ran on epoch > 0 *)
  Alcotest.(check bool) "later requests ran on rotated epochs" true
    (List.exists
       (fun (resp : Serve.Response.t) ->
         Epoch.to_int resp.Serve.Response.req.Serve.Request.req_epoch > 0)
       responses);
  (* key-load penalties were actually charged *)
  Alcotest.(check bool) "key penalty accounted" true (tr.Fleet.Fleet.tr_key_penalty_s > 0.0);
  Alcotest.(check bool) "ingress accounted" true (tr.Fleet.Fleet.tr_transcipher_s > 0.0);
  Alcotest.(check bool) "key bytes streamed" true (tr.Fleet.Fleet.tr_key_bytes_loaded > 0);
  Alcotest.(check bool) "cold-start latency per tenant" true
    (List.length tr.Fleet.Fleet.tr_cold_start_ms = 8)

let test_fleet_tenant_locality_wins () =
  let loc, _ = run_tenant_fleet ~policy:Fleet.Router.Locality () in
  let rr, _ = run_tenant_fleet ~policy:Fleet.Router.Round_robin () in
  Alcotest.(check bool)
    (Printf.sprintf "locality hit rate beats round-robin (%.2f vs %.2f)"
       (Fleet.Fleet.key_hit_rate loc) (Fleet.Fleet.key_hit_rate rr))
    true
    (Fleet.Fleet.key_hit_rate loc > Fleet.Fleet.key_hit_rate rr);
  let pen r = r.Fleet.Fleet.fr_tenants.Fleet.Fleet.tr_key_penalty_s in
  Alcotest.(check bool) "locality pays less key-load penalty" true (pen loc < pen rr)

let test_fleet_tenants_bit_identical_across_jobs () =
  (* the determinism pin with the whole tenant layer on: store ticks,
     leases, byte-weighted caches and penalties all on the virtual
     clock — results cannot depend on pool width *)
  let run jobs =
    let pool = Exec.Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
    fst (run_tenant_fleet ~pool ~period:5.0 ~policy:Fleet.Router.Locality ())
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (float 0.0)) "makespan bit-identical" a.Fleet.Fleet.fr_makespan_s
    b.Fleet.Fleet.fr_makespan_s;
  Alcotest.(check int) "key hits identical" a.Fleet.Fleet.fr_key_hits b.Fleet.Fleet.fr_key_hits;
  Alcotest.(check (list (pair string int))) "router decisions identical" a.Fleet.Fleet.fr_router
    b.Fleet.Fleet.fr_router;
  let ta = a.Fleet.Fleet.fr_tenants and tb = b.Fleet.Fleet.fr_tenants in
  Alcotest.(check (float 0.0)) "key penalty bit-identical" ta.Fleet.Fleet.tr_key_penalty_s
    tb.Fleet.Fleet.tr_key_penalty_s;
  Alcotest.(check (float 0.0)) "ingress bit-identical" ta.Fleet.Fleet.tr_transcipher_s
    tb.Fleet.Fleet.tr_transcipher_s;
  Alcotest.(check int) "key bytes identical" ta.Fleet.Fleet.tr_key_bytes_loaded
    tb.Fleet.Fleet.tr_key_bytes_loaded;
  Alcotest.(check int) "rotation events identical" (List.length ta.Fleet.Fleet.tr_events)
    (List.length tb.Fleet.Fleet.tr_events);
  Alcotest.(check (list (pair int (float 0.0)))) "cold starts bit-identical"
    ta.Fleet.Fleet.tr_cold_start_ms tb.Fleet.Fleet.tr_cold_start_ms

let suite =
  ( "tenant",
    [
      Alcotest.test_case "typed ids and key-set bytes" `Quick test_ids_and_key_bytes;
      Alcotest.test_case "lifecycle illegal transitions" `Quick test_lifecycle_illegal_transitions;
      Alcotest.test_case "stale epoch rejected" `Quick test_stale_epoch_rejected;
      Alcotest.test_case "rotation waits for leases" `Quick test_rotation_waits_for_leases;
      Alcotest.test_case "release accounting strict" `Quick test_release_accounting;
      test_store_matches_ref;
      Alcotest.test_case "idle tick allocation flat" `Quick test_idle_tick_allocation;
      Alcotest.test_case "key cache byte-weighted" `Quick test_key_cache_byte_weighted;
      Alcotest.test_case "key cache thrash accounting" `Quick test_key_cache_thrash_accounting;
      Alcotest.test_case "transcipher upload model" `Quick test_transcipher_upload_model;
      Alcotest.test_case "fleet rotation mid-flight" `Quick test_fleet_rotation_mid_flight;
      Alcotest.test_case "fleet tenant locality wins" `Quick test_fleet_tenant_locality_wins;
      Alcotest.test_case "fleet tenants bit-identical jobs" `Quick
        test_fleet_tenants_bit_identical_across_jobs;
    ] )
