(* End-to-end benchmark of the Cinnamon stack.

   Four workloads, each driven only through public library calls and
   timed from outside:

     infer-bert     one encrypted bert-encoder inference through the
                    functional emulator (keyswitches on the parallel
                    algorithm oracles)
     bootstrap      one CKKS bootstrap at Params.boot (fused keyswitch
                    engine, no compiler)
     compile-sim    compile + cycle-simulate bootstrap-13 and
                    bert-encoder on Cinnamon-4 (no result cache)
     serve-tenants  the multi-tenant fleet replay (Tenant_bench.full,
                    three router policies, warm result cache)

   Usage:
     e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--out DIR] [--trace-file FILE]

   With --workload, runs that workload in this process: three
   preparations (their median is set-up time, plus one discarded
   warm-up operation), then operations back to back for --seconds
   (at least three).  It prints one line per metric,
   "workload name value unit (n=samples)", and as its last line one
   JSON object {correct, attempted, failed, metrics}.  --trace 0
   reports the end-to-end metrics; --trace 1 alternates untraced and
   traced operations and reports the per-layer metrics instead.

   Without --workload, runs every workload in its own child process
   (so set-up, peak memory and the result cache are per workload) and
   exits 1 if any operation failed.  --out DIR writes one JSON file
   per run for bench_diff.exe; --trace-file keeps the Chrome trace of
   the last traced operation.  Inputs derive from --seed (default 42).
   See README.md for the metrics and why each workload is here. *)

open Cinnamon_ckks
open Cinnamon_compiler
module Rng = Cinnamon_util.Rng
module Stats = Cinnamon_util.Stats
module Json = Cinnamon_util.Json
module Tel = Cinnamon_telemetry.Telemetry
module F = Cinnamon_emulator.Functional
module Nn = Cinnamon_nn
module Specs = Cinnamon_workloads.Specs
module Runner = Cinnamon_workloads.Runner
module Sim = Cinnamon_sim.Simulator
module Exec = Cinnamon_exec
module Loadgen = Cinnamon_serve.Loadgen
module Slo = Cinnamon_serve.Slo
module Tb = Cinnamon_fleet.Tenant_bench
module Rns_poly = Cinnamon_rns.Rns_poly
module Poly_ir = Cinnamon_ir.Poly_ir
open Summary

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Bench-side span around one public call; free when tracing is off. *)
let span name f = Tel.Span.with_ ~cat:"bench" name f

(* Named set-up phases of one preparation (or of the warm-up). *)
type phases = { mutable spent : (string * float) list }

let phase ph name f =
  let r, dt = timed f in
  ph.spent <- (name, dt) :: ph.spent;
  r

(* What one operation produced, checked outside the timed region.
   [pins] and [digest] are deterministic: every rep of a run must
   reproduce the warm-up's exactly, or the rep counts as failed. *)
type outcome = {
  attempted : int;
  failed : int;
  pins : (string * float) list;
  digest : string;
}

type instance = {
  op : traced:bool -> unit -> outcome;
      (** runs the timed part, returns the untimed check *)
  warmup : phases -> outcome;
  probe : op_s:float -> (string * float) list;  (** extra per-layer metrics, traced runs only *)
}

type workload = {
  name : string;
  prepare : seed:int -> phases -> instance;
  shares : (string * string list) list;
      (** per-layer metric -> trace keys whose self time it sums *)
  counts : (string * string) list;  (** per-layer metric -> trace key counted per op *)
}

let default_warmup op ph = phase ph "warmup" (fun () -> op ~traced:false) ()

let digest_poly p =
  Digest.string
    (Marshal.to_string
       (Array.init (Rns_poly.level p) (fun i ->
            Cinnamon_rns.Limb_buf.to_int_array (Rns_poly.copy_limb p i)))
       [])

let digest_ct (ct : Ciphertext.t) =
  Digest.to_hex
    (Digest.string (digest_poly ct.Ciphertext.c0 ^ digest_poly ct.Ciphertext.c1
                    ^ Printf.sprintf "%h/%d" ct.Ciphertext.scale ct.Ciphertext.slots))

(* ------------------------------------------------------------ infer-bert *)

(* At 1 or 2 chips the keyswitch pass still assigns output aggregation,
   whose one-digit-per-chip key is then wider than alpha and the
   decrypt is garbage (README.md, open items); 4 chips is correct. *)
let bert_chips = 4
let bert_slots = 64

(* The deep test_nn parameters: the bert chain rescales ~36 times. *)
let bert_params () = Params.make ~slots:bert_slots ~log_n:10 ~scale_bits:28 ~levels:38 ~dnum:4 ()

let infer_bert ~seed ph =
  let params = phase ph "keygen" bert_params in
  let g = Nn.Zoo.bert_encoder ~d_model:16 ~d_ff:32 ~exp_deg:2 ~gelu_deg:2 ~iters:1 () in
  let plan, prog, poly =
    phase ph "compile" (fun () ->
        let plan = Nn.Plan.make g in
        (* bootstrap-free: the emulator runs bootstraps only at kernel
           granularity *)
        let prog = Nn.Lower.lower ~refresh_depth:max_int ~plan g in
        let cfg = Compile_config.functional ~chips:bert_chips params in
        let poly = Lower_poly.lower cfg prog in
        let (_ : Keyswitch_pass.report) = Keyswitch_pass.run cfg poly in
        (plan, prog, poly))
  in
  let rng = Rng.create ~seed in
  let keys =
    phase ph "keygen" (fun () ->
        F.gen_keys params ~chips:bert_chips ~rotations:(F.rotations_of prog) rng)
  in
  let binding = Nn.Binding.random ~seed:(seed + 1) g in
  let in_rng = Rng.create ~seed:(seed + 2) in
  let logical =
    List.map
      (fun (name, dim) ->
        (name, Array.init dim (fun _ -> 0.4 *. ((2.0 *. Rng.float in_rng) -. 1.0))))
      (Nn.Graph.inputs g)
  in
  let plaintexts, inputs =
    phase ph "encode" (fun () ->
        let inputs = Hashtbl.create 4 in
        List.iter
          (fun (name, x) ->
            let dim = Array.length x in
            let replicated = Array.init bert_slots (fun s -> x.(s mod dim)) in
            Hashtbl.add inputs name (Encrypt.encrypt_real params keys.F.pk replicated rng))
          logical;
        (Nn.Binding.plaintexts binding g plan ~slots:bert_slots, inputs))
  in
  let expected = Nn.Binding.reference binding g ~slots:bert_slots ~inputs:logical in
  (* the IR has one site per result component; count each keyswitch once *)
  let sites = List.filter (fun (_, s) -> s.Poly_ir.component = 0) (Poly_ir.keyswitch_sites poly) in
  let sites_of alg = List.length (List.filter (fun (_, s) -> s.Poly_ir.algorithm = alg) sites) in
  let ops = Cinnamon_ir.Ct_ir.count_ops prog in
  let static_pins =
    [
      ("emulator.ks_ib", Float.of_int (sites_of Poly_ir.Input_broadcast));
      ("emulator.ks_oa", Float.of_int (sites_of Poly_ir.Output_aggregation));
      ("ct.rotations", Float.of_int ops.Cinnamon_ir.Ct_ir.n_rotate);
      ("ct.mul_ct", Float.of_int ops.Cinnamon_ir.Ct_ir.n_mul_ct);
      ("ct.mul_plain", Float.of_int ops.Cinnamon_ir.Ct_ir.n_mul_plain);
    ]
  in
  let op ~traced:_ =
    let env = F.make_env ~params ~keys ~plaintexts ~inputs ~poly in
    let outputs = F.run env prog in
    fun () ->
      let errs =
        List.map
          (fun (name, ct) ->
            let got = Array.sub (Encrypt.decrypt_real params keys.F.sk ct) 0 bert_slots in
            let want = List.assoc name expected in
            (Stats.max_abs_error ~expected:want ~actual:got,
             Stats.precision_bits ~expected:want ~actual:got))
          outputs
      in
      (* the test_nn decrypt bound *)
      let bad = outputs = [] || List.exists (fun (e, _) -> not (e < 5e-2)) errs in
      {
        attempted = 1;
        failed = (if bad then 1 else 0);
        pins =
          static_pins
          @ [ ("emulator.limbs_moved", Float.of_int env.F.comm.Keyswitch_alg.limbs_moved);
              ("nn.infer_bits", List.fold_left (fun a (_, b) -> Float.min a b) 52.0 errs) ];
        digest = String.concat "," (List.map (fun (n, ct) -> n ^ ":" ^ digest_ct ct) outputs);
      }
  in
  (* Functional.run has no spans inside, so its keyswitch share is
     estimated: time one Keyswitch_alg.run (and the fused engine) per
     (algorithm, limbs) pair the program uses, weighted by site count. *)
  let probe ~op_s =
    let groups = Hashtbl.create 16 in
    (* IR levels count down from the program's top level; the
       ciphertexts count down from the parameters' *)
    let offset = prog.Cinnamon_ir.Ct_ir.top_level - Params.top_level params in
    let top_limbs = Params.top_level params + 1 in
    List.iter
      (fun ((node : Poly_ir.node), (s : Poly_ir.ks_site)) ->
        let k = (s.Poly_ir.algorithm, max 1 (min top_limbs (node.Poly_ir.limbs - offset))) in
        Hashtbl.replace groups k (1 + Option.value ~default:0 (Hashtbl.find_opt groups k)))
      sites;
    let est = Hashtbl.create 4 in
    let add k v = Hashtbl.replace est k (v +. Option.value ~default:0.0 (Hashtbl.find_opt est k)) in
    let prng = Rng.create ~seed:(seed + 3) in
    Hashtbl.iter
      (fun (alg, limbs) count ->
        let c =
          Rns_poly.random ~n:params.Params.n
            ~basis:(Params.basis_at_level params (limbs - 1))
            ~domain:Rns_poly.Eval prng
        in
        let key =
          match alg with
          | Poly_ir.Output_aggregation -> Keyswitch_alg.Round_robin keys.F.rr_relin
          | _ -> Keyswitch_alg.Standard keys.F.ek.Keys.relin
        in
        let _, t_alg =
          timed (fun () ->
              Keyswitch_alg.run params ~algorithm:alg ~chips:bert_chips ~key c
                (Keyswitch_alg.new_counter ()))
        in
        let _, t_fused = timed (fun () -> Keyswitch_fused.keyswitch params keys.F.ek.Keys.relin c) in
        add alg (Float.of_int count *. t_alg);
        add Poly_ir.Seq (Float.of_int count *. t_fused))
      groups;
    let pct alg = 100.0 *. Option.value ~default:0.0 (Hashtbl.find_opt est alg) /. op_s in
    let ib = pct Poly_ir.Input_broadcast and oa = pct Poly_ir.Output_aggregation in
    [
      ("emulator.ks_ib_est_pct", ib);
      ("emulator.ks_oa_est_pct", oa);
      ("emulator.other_est_pct", 100.0 -. ib -. oa);
      ("emulator.ks_fused_est_pct", pct Poly_ir.Seq);
    ]
  in
  { op; warmup = default_warmup op; probe }

(* ------------------------------------------------------------- bootstrap *)

let bootstrap ~seed ph =
  let params = phase ph "keygen" (fun () -> Lazy.force Params.boot) in
  let cfg = Bootstrap.default_config () in
  let rng = Rng.create ~seed in
  let sk, ek =
    phase ph "keygen" (fun () ->
        let sk = Keys.gen_secret_key params rng in
        let rots = Bootstrap.required_rotations params ~slots:cfg.Bootstrap.slots in
        (sk, Keys.provision params sk ~rotations:rots ~conjugation:true rng))
  in
  (* the library default: a 2-worker pool makes this ring size slower
     (README.md, open items) *)
  let ctx = Eval.context params ek in
  let xs = Array.init cfg.Bootstrap.slots (fun _ -> ((2.0 *. Rng.float rng) -. 1.0) /. 128.0) in
  let ct =
    phase ph "encode" (fun () ->
        let pk = Keys.gen_public_key params sk rng in
        Encrypt.encrypt_real params pk ~level:0 xs rng)
  in
  (* The traced op calls the stages one by one so each gets a span; the
     digest check holds it bitwise equal to Bootstrap.bootstrap. *)
  let staged () =
    let raised = span "boot.mod_raise" (fun () -> Bootstrap.mod_raise params ct) in
    let summed = span "boot.sub_sum" (fun () -> Bootstrap.sub_sum ctx cfg raised) in
    let a, b = span "boot.c2s" (fun () -> Bootstrap.coeff_to_slot ctx cfg summed) in
    let a' = span "boot.eval_mod" (fun () -> Bootstrap.eval_mod ctx cfg params a) in
    let b' = span "boot.eval_mod" (fun () -> Bootstrap.eval_mod ctx cfg params b) in
    span "boot.s2c" (fun () -> Bootstrap.slot_to_coeff ctx cfg (a', b'))
  in
  let op ~traced =
    let out = if traced then staged () else Bootstrap.bootstrap ctx cfg params ct in
    fun () ->
      let got = Array.sub (Encrypt.decrypt_real params sk out) 0 (Array.length xs) in
      let bits = Stats.precision_bits ~expected:xs ~actual:got in
      (* at least 8 bits, and the 7 refreshed levels the bootstrap tests require *)
      let ok = bits >= 8.0 && Ciphertext.level out >= 7 in
      {
        attempted = 1;
        failed = (if ok then 0 else 1);
        pins = [ ("boot.bits", bits) ];
        digest = digest_ct out;
      }
  in
  { op; warmup = default_warmup op; probe = (fun ~op_s:_ -> []) }

(* ----------------------------------------------------------- compile-sim *)

let sim_kernels = [ ("boot13", "bootstrap-13"); ("bert", "bert-encoder") ]

(* The simulator emits one trace event per instruction (~450k for
   bootstrap-13); its bench span is enough, so the sink is paused. *)
let untraced f =
  if Tel.enabled () then begin
    Tel.disable ();
    Fun.protect ~finally:Tel.enable f
  end
  else f ()

let compile_sim ~seed:_ ph =
  let sys = Runner.cinnamon_4 in
  let cfg = Runner.effective_config (Compile_config.paper ()) sys in
  let kernels =
    phase ph "compile" (fun () ->
        List.map
          (fun (tag, name) ->
            match Specs.find_kernel name with
            | Ok k -> (tag, k)
            | Error msg -> failwith msg)
          sim_kernels)
  in
  let verified = ref false in
  let compile_all () =
    List.map
      (fun (tag, k) ->
        span ("kernel." ^ tag) (fun () ->
            let prog = span "workloads.kernel_program" (fun () -> Specs.kernel_program k) in
            let r = Pipeline.compile cfg prog in
            let s =
              span "sim.run" (fun () -> untraced (fun () -> Sim.run sys.Runner.group_sim r.Pipeline.machine))
            in
            (tag, r, s)))
      kernels
  in
  let balanced (s : Sim.result) =
    Array.for_all
      (fun (c : Sim.chip_stats) ->
        c.Sim.cs_busy + c.Sim.cs_stall_operand + c.Sim.cs_stall_fu + c.Sim.cs_stall_hbm
        + c.Sim.cs_stall_network + c.Sim.cs_idle
        = c.Sim.cs_total)
      s.Sim.per_chip_stats
  in
  let pins_of (tag, (r : Pipeline.result), (s : Sim.result)) =
    let i = Float.of_int in
    let chips f = i (Array.fold_left (fun a c -> a + f c) 0 s.Sim.per_chip_stats) in
    let rep = r.Pipeline.ks_report in
    List.map
      (fun (name, v) -> (name ^ "." ^ tag, v))
      [
        ("isa.instrs",
         i (Array.fold_left (fun a p -> a + Array.length p.Cinnamon_isa.Isa.instrs) 0
              r.Pipeline.machine.Cinnamon_isa.Isa.programs));
        ("regalloc.spills", i (Array.fold_left (fun a st -> a + st.Regalloc.spills) 0 r.Pipeline.regalloc));
        ("compiler.comm_bytes", i r.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved);
        ("compiler.ks_batches", i (rep.Keyswitch_pass.pattern_a_groups + rep.Keyswitch_pass.pattern_b_groups));
        ("sim.ms", s.Sim.seconds *. 1e3);
        ("sim.busy", chips (fun c -> c.Sim.cs_busy));
        ("sim.stall_operand", chips (fun c -> c.Sim.cs_stall_operand));
        ("sim.stall_fu", chips (fun c -> c.Sim.cs_stall_fu));
        ("sim.stall_hbm", chips (fun c -> c.Sim.cs_stall_hbm));
        ("sim.stall_network", chips (fun c -> c.Sim.cs_stall_network));
        ("sim.idle", chips (fun c -> c.Sim.cs_idle));
      ]
  in
  let check results () =
    let n = List.length results in
    let ok = !verified && List.for_all (fun (_, _, s) -> balanced s) results in
    { attempted = n; failed = (if ok then 0 else n); pins = List.concat_map pins_of results; digest = "" }
  in
  let op ~traced:_ = check (compile_all ()) in
  let warmup ph =
    let results = phase ph "warmup" compile_all in
    phase ph "verify" (fun () ->
        verified := List.for_all (fun (_, r, _) -> Pipeline.verify r = []) results);
    check results ()
  in
  { op; warmup; probe = (fun ~op_s:_ -> []) }

(* --------------------------------------------------------- serve-tenants *)

let serve_tenants ~seed ph =
  let cfg = { Tb.full with Tb.tb_jobs = 2; tb_seed = seed } in
  (* Set-up is calibration on a cold result cache: every serving class
     plus the transcipher ingress, compiled and simulated once. *)
  phase ph "calibrate" (fun () ->
      Exec.Result_cache.clear_memory ();
      let pool = Exec.Pool.create ~jobs:cfg.Tb.tb_jobs () in
      Fun.protect
        ~finally:(fun () -> Exec.Pool.shutdown pool)
        (fun () ->
          let sys = (List.hd cfg.Tb.tb_mix).Loadgen.cls_system in
          ignore
            (Loadgen.calibrate ~pool ~compile:cfg.Tb.tb_compile
               (cfg.Tb.tb_mix
               @ [ { Loadgen.cls_bench = "transcipher"; cls_system = sys; cls_weight = 1.0 } ]))));
  let op ~traced:_ =
    let s0 = Exec.Result_cache.stats () in
    let r = Tb.run cfg in
    let s1 = Exec.Result_cache.stats () in
    fun () ->
      let offered = ref 0 and failed = ref 0 in
      List.iter
        (fun (p : Tb.point) ->
          let rp = p.Tb.tp_report in
          let accounted =
            rp.Slo.rp_completed + rp.Slo.rp_shed + rp.Slo.rp_failed + rp.Slo.rp_rejected_full
            + rp.Slo.rp_rejected_expired + rp.Slo.rp_rejected_closed + rp.Slo.rp_rejected_fleet
            + rp.Slo.rp_rejected_tenant
          in
          offered := !offered + rp.Slo.rp_offered;
          failed := !failed + if accounted = rp.Slo.rp_offered then rp.Slo.rp_failed else rp.Slo.rp_offered)
        r.Tb.tbr_points;
      let point name = List.find (fun p -> p.Tb.tp_policy = name) r.Tb.tbr_points in
      let loc = point "locality" in
      let rp = loc.Tb.tp_report in
      let opt = Option.value ~default:0.0 in
      {
        attempted = !offered;
        failed = !failed;
        pins =
          [
            ("exec.cache_hits", Float.of_int (s1.Exec.Result_cache.hits - s0.Exec.Result_cache.hits));
            ("exec.cache_misses", Float.of_int (s1.Exec.Result_cache.misses - s0.Exec.Result_cache.misses));
            ("fleet.goodput_rps", rp.Slo.rp_goodput_rps);
            ("fleet.p99_ms", opt rp.Slo.rp_p99_ms);
            ("serve.mean_batch", rp.Slo.rp_mean_batch);
            ("serve.queue_depth_mean", rp.Slo.rp_queue_depth_mean);
            ("serve.shed_rate", rp.Slo.rp_shed_rate);
            ("serve.reject_rate", rp.Slo.rp_reject_rate);
            ("fleet.key_hit_rate", loc.Tb.tp_key_hit_rate);
            ("fleet.key_hit_rate.round_robin", (point "round_robin").Tb.tp_key_hit_rate);
            ("fleet.key_penalty_share", loc.Tb.tp_key_penalty_share);
            ("fleet.key_gb_loaded", loc.Tb.tp_key_gb_loaded);
            ("tenant.rotations_completed", Float.of_int loc.Tb.tp_rotations_completed);
            ("tenant.cold_p99_ms", loc.Tb.tp_cold_p99_ms);
            ("tenant.transcipher_pct", loc.Tb.tp_transcipher_pct);
          ];
        digest = Digest.to_hex (Digest.string (Json.to_string ~compact:true (Tb.result_json r)));
      }
  in
  { op; warmup = default_warmup op; probe = (fun ~op_s:_ -> []) }

(* ------------------------------------------------------------ workloads *)

(* the bench's stage spans, then the fused keyswitch's own spans *)
let boot_shares =
  List.map
    (fun s -> ("boot." ^ s ^ "_pct", [ "boot." ^ s ]))
    [ "mod_raise"; "sub_sum"; "c2s"; "eval_mod"; "s2c" ]
  @ List.map
      (fun s -> ("ks_fused." ^ s ^ "_pct", [ "ks_fused." ^ s ]))
      [ "keyswitch"; "decompose"; "extend_mac"; "mod_down"; "decompose_shared"; "hoisted_mac" ]

(* the compiler's pass spans and the bench's simulator span, per kernel *)
let sim_shares =
  List.concat_map
    (fun (tag, _) ->
      List.map
        (fun (metric, key) -> (metric ^ "." ^ tag, [ key ^ "." ^ tag ]))
        [ ("compiler.lower_poly_pct", "lower_poly"); ("compiler.lower_limb_pct", "lower_limb");
          ("compiler.regalloc_isa_pct", "regalloc+lower_isa"); ("sim.run_pct", "sim.run") ])
    sim_kernels

let workloads =
  [
    { name = "infer-bert"; prepare = infer_bert; shares = []; counts = [] };
    {
      name = "bootstrap";
      prepare = bootstrap;
      shares = boot_shares;
      counts =
        [ ("ks_fused.keyswitch_n", "ks_fused.keyswitch");
          ("ks_fused.decompose_shared_n", "ks_fused.decompose_shared") ];
    };
    { name = "compile-sim"; prepare = compile_sim; shares = sim_shares; counts = [] };
    {
      name = "serve-tenants";
      prepare = serve_tenants;
      shares = [ ("serve.execute_pct", [ "serve.execute" ]) ];
      counts = [ ("serve.execute_n", "serve.execute") ];
    };
  ]

(* Every run reports every metric of its kind; a workload that does not
   exercise a layer reports 0 there.  Units match BENCHMARK.json. *)
let end_to_end = [ ("op_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("trace_overhead_pct", "%"); ("unattributed_pct", "%"); ("alloc_mb_per_op", "MB");
    ("major_gcs_per_op", "count");
  ]
  @ List.map
      (fun p -> ("setup." ^ p ^ "_pct", "%"))
      [ "keygen"; "compile"; "encode"; "verify"; "calibrate"; "warmup" ]
  @ List.concat_map
      (fun shape ->
        List.map (fun k -> ("rns." ^ k ^ "_us." ^ shape, "us")) [ "ntt"; "base_conv"; "automorphism"; "mul" ])
      [ "w1"; "w2" ]
  @ [
      ("emulator.ks_ib_est_pct", "%"); ("emulator.ks_oa_est_pct", "%");
      ("emulator.other_est_pct", "%"); ("emulator.ks_fused_est_pct", "%");
      ("emulator.ks_ib", "count"); ("emulator.ks_oa", "count"); ("emulator.limbs_moved", "count");
      ("ct.rotations", "count"); ("ct.mul_ct", "count"); ("ct.mul_plain", "count");
      ("nn.infer_bits", "bits");
    ]
  @ List.map (fun (m, _) -> (m, "%")) boot_shares
  @ [ ("ks_fused.keyswitch_n", "count"); ("ks_fused.decompose_shared_n", "count"); ("boot.bits", "bits") ]
  @ List.map (fun (m, _) -> (m, "%")) sim_shares
  @ List.concat_map
      (fun (tag, _) ->
        List.map
          (fun (m, u) -> (m ^ "." ^ tag, u))
          [
            ("isa.instrs", "count");
            ("regalloc.spills", "count"); ("compiler.comm_bytes", "bytes");
            ("compiler.ks_batches", "count"); ("sim.ms", "ms-virtual"); ("sim.busy", "cycles");
            ("sim.stall_operand", "cycles"); ("sim.stall_fu", "cycles"); ("sim.stall_hbm", "cycles");
            ("sim.stall_network", "cycles"); ("sim.idle", "cycles");
          ])
      sim_kernels
  @ [
      ("serve.execute_pct", "%"); ("serve.execute_n", "count"); ("exec.cache_hits", "count");
      ("exec.cache_misses", "count"); ("fleet.goodput_rps", "req/s-virtual");
      ("fleet.p99_ms", "ms-virtual"); ("serve.mean_batch", "req"); ("serve.queue_depth_mean", "req");
      ("serve.shed_rate", "ratio"); ("serve.reject_rate", "ratio"); ("fleet.key_hit_rate", "ratio");
      ("fleet.key_hit_rate.round_robin", "ratio"); ("fleet.key_penalty_share", "ratio");
      ("fleet.key_gb_loaded", "GB"); ("tenant.rotations_completed", "count");
      ("tenant.cold_p99_ms", "ms-virtual"); ("tenant.transcipher_pct", "%");
    ]

(* --------------------------------------------------- trace attribution *)

type ev = { e_name : string; e_cat : string; e_ts : float; e_dur : float; e_tid : int }

(* Wall-clock spans (pid 0) of an exported Chrome trace. *)
let load_spans file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let doc = match Json.of_string text with Ok d -> d | Error e -> failwith ("trace: " ^ e) in
  let events = Option.value ~default:[] (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
  List.filter_map
    (fun e ->
      let get conv k = Option.bind (Json.member k e) conv in
      match
        ( get Json.to_str "ph", get Json.to_int "pid", get Json.to_str "name", get Json.to_str "cat",
          get Json.to_float "ts", get Json.to_float "dur", get Json.to_int "tid" )
      with
      | Some "X", Some 0, Some e_name, Some e_cat, Some e_ts, Some e_dur, Some e_tid ->
        Some { e_name; e_cat; e_ts; e_dur; e_tid }
      | _ -> None)
    events

(* Self time (us) and span count per key, summed over traced ops. *)
type ledger = {
  self_us : (string, float) Hashtbl.t;
  spans : (string, int) Hashtbl.t;
  mutable total_us : float;
  mutable ops : int;
}

let bump tbl k v zero add = Hashtbl.replace tbl k (add v (Option.value ~default:zero (Hashtbl.find_opt tbl k)))
let add_self l k v = bump l.self_us k v 0.0 ( +. )
let add_span l k = bump l.spans k 1 0 ( + )

(* Length of the union of [intervals] (start, end). *)
let union_length intervals =
  let _, total =
    List.fold_left
      (fun (reach, total) (a, b) ->
        let a = Float.max a reach in
        if b > a then (b, total +. (b -. a)) else (reach, total))
      (neg_infinity, 0.0)
      (List.sort compare intervals)
  in
  total

(* Attribute one traced op.  On the op's own domain a span's self time
   is its duration minus its children's; a bench span "kernel.X" scopes
   its descendants' keys with ".X".  Spans on other domains (pool
   workers) are charged by the wall time their outermost spans cover,
   which the op's domain spent waiting for them.  The op span's own
   remainder is "unattributed", so the keys always sum to the total. *)
let attribute ledger evs =
  let op =
    match List.filter (fun e -> e.e_cat = "bench" && e.e_name = "op") evs with
    | [ op ] -> op
    | _ -> failwith "trace: expected exactly one op span"
  in
  let eps = 0.01 in
  let contains p e = e.e_ts >= p.e_ts -. eps && e.e_ts +. e.e_dur <= p.e_ts +. p.e_dur +. eps in
  let inside = List.filter (fun e -> e != op && contains op e) evs in
  let mine, others = List.partition (fun e -> e.e_tid = op.e_tid) inside in
  let by_start = List.sort (fun a b -> compare (a.e_ts, -.a.e_dur) (b.e_ts, -.b.e_dur)) in
  (* other domains: outermost spans per domain, clipped to the op *)
  let outer = Hashtbl.create 8 in
  let reach = Hashtbl.create 4 in
  List.iter
    (fun e ->
      add_span ledger e.e_name;
      let r = Option.value ~default:neg_infinity (Hashtbl.find_opt reach e.e_tid) in
      if e.e_ts >= r then begin
        Hashtbl.replace reach e.e_tid (e.e_ts +. e.e_dur);
        let iv = (Float.max e.e_ts op.e_ts, Float.min (e.e_ts +. e.e_dur) (op.e_ts +. op.e_dur)) in
        Hashtbl.replace outer e.e_name (iv :: Option.value ~default:[] (Hashtbl.find_opt outer e.e_name))
      end)
    (by_start others);
  Hashtbl.iter (fun name ivs -> add_self ledger name (union_length ivs)) outer;
  let waited = union_length (List.concat (List.of_seq (Hashtbl.to_seq_values outer))) in
  (* the op's domain: nesting by containment *)
  let frames = ref [] and stack = ref [] in
  let op_frame = (op, ref (op.e_dur -. waited), "unattributed", None) in
  stack := [ op_frame ];
  frames := [ op_frame ];
  List.iter
    (fun e ->
      let rec pop () =
        match !stack with
        | (p, _, _, _) :: rest when not (contains p e) ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let parent_scope =
        match !stack with
        | (_, self, _, scope) :: _ ->
          self := !self -. e.e_dur;
          scope
        | [] -> None
      in
      let key = match parent_scope with Some s -> e.e_name ^ "." ^ s | None -> e.e_name in
      let prefix = "kernel." in
      let scope =
        if e.e_cat = "bench" && String.starts_with ~prefix e.e_name then
          Some (String.sub e.e_name (String.length prefix) (String.length e.e_name - String.length prefix))
        else parent_scope
      in
      add_span ledger key;
      let frame = (e, ref e.e_dur, key, scope) in
      stack := frame :: !stack;
      frames := frame :: !frames)
    (by_start mine);
  List.iter (fun (_, self, key, _) -> add_self ledger key !self) !frames;
  ledger.total_us <- ledger.total_us +. op.e_dur;
  ledger.ops <- ledger.ops + 1

(* ---------------------------------------------------------- RNS probes *)

(* Median wall time (us) of the four RNS kernels at one functional ring
   shape, called through the public Rns_poly / Base_conv entry points. *)
let rns_reps = 31

let rns_probe ~seed params tag =
  let n = params.Params.n and q = params.Params.q_basis in
  let rng = Rng.create ~seed in
  let coeff = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Coeff rng in
  let a = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Eval rng in
  let b = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Eval rng in
  let k = Keys.galois_of_rotation ~n 1 in
  let us f = median (List.init rns_reps (fun _ -> 1e6 *. snd (timed f))) in
  [
    ("rns.ntt_us." ^ tag, us (fun () -> Rns_poly.to_eval coeff));
    ("rns.base_conv_us." ^ tag, us (fun () -> Cinnamon_rns.Base_conv.convert coeff ~dst:params.Params.p_basis));
    ("rns.automorphism_us." ^ tag, us (fun () -> Rns_poly.automorphism a ~k));
    ("rns.mul_us." ^ tag, us (fun () -> Rns_poly.mul a b));
  ]

(* -------------------------------------------------------------- host *)

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Some (Float.of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_status () with Sys_error _ -> None) with
  | Some mb -> mb
  | None -> Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The checked-out commit, read from .git; "unknown" outside a clone. *)
let git_commit () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with Sys_error _ -> None in
  let head = read ".git/HEAD" in
  let commit =
    match head with
    | Some h when String.starts_with ~prefix:"ref: " h ->
      read (Filename.concat ".git" (String.sub h 5 (String.length h - 5)))
    | h -> h
  in
  Option.value ~default:"unknown" commit

let host_json () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
    ]

(* ---------------------------------------------------------- one run *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  trace_file : string option;
}

let setup_reps = 3

let run_workload opts (w : workload) =
  let fail_setup e =
    Printf.eprintf "e2e: %s: set-up failed: %s\n%!" w.name (Printexc.to_string e);
    exit 1
  in
  (* set-up: the median of three preparations, plus the warm-up op *)
  let prep_times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    let ph = { spent = [] } in
    match timed (fun () -> w.prepare ~seed:opts.seed ph) with
    | inst, dt ->
      prep_times := dt :: !prep_times;
      last := Some (inst, ph, dt)
    | exception e -> fail_setup e
  done;
  let inst, prep_ph, prep_last = Option.get !last in
  let warm_ph = { spent = [] } in
  let reference = try inst.warmup warm_ph with e -> fail_setup e in
  let warm_s = List.fold_left (fun a (_, t) -> a +. t) 0.0 warm_ph.spent in
  let setup_s = median !prep_times +. warm_s in
  let attempted = ref reference.attempted and failed = ref reference.failed in
  (* measured ops; a traced run alternates untraced and traced ones *)
  let ledger = { self_us = Hashtbl.create 32; spans = Hashtbl.create 32; total_us = 0.0; ops = 0 } in
  let plain = ref [] and traced_s = ref [] and alloc = ref [] and majors = ref [] in
  let trace_file =
    match opts.trace_file with Some f -> f | None -> Filename.temp_file "e2e-trace" ".json"
  in
  (* an op starts only if, taking as long as the last one, it ends in
     the window *)
  let deadline = now () +. opts.seconds in
  let min_ops = if opts.trace then 4 else 3 in
  let i = ref 0 and last_iter = ref warm_s in
  while !i < min_ops || now () +. !last_iter <= deadline do
    let iter_start = now () in
    let traced = opts.trace && !i mod 2 = 1 in
    incr i;
    if traced then begin
      Tel.reset ();
      Tel.enable ()
    end;
    let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let result = try Ok (timed (fun () -> span "op" (fun () -> inst.op ~traced))) with e -> Error e in
    let a1 = Gc.allocated_bytes () and m1 = (Gc.quick_stat ()).Gc.major_collections in
    Tel.disable ();
    match result with
    | Error e ->
      (* a raising op fails everything the warm-up op attempted *)
      Printf.eprintf "e2e: %s: op raised %s\n%!" w.name (Printexc.to_string e);
      attempted := !attempted + reference.attempted;
      failed := !failed + reference.attempted
    | Ok (check, dt) ->
      let o = check () in
      attempted := !attempted + o.attempted;
      (* a rep that does not reproduce the warm-up bit for bit fails whole *)
      let same = o.digest = reference.digest && o.pins = reference.pins in
      failed := !failed + if same then o.failed else o.attempted;
      if traced then begin
        traced_s := dt :: !traced_s;
        Tel.write_chrome_trace trace_file;
        attribute ledger (load_spans trace_file)
      end
      else begin
        plain := dt :: !plain;
        alloc := ((a1 -. a0) /. 1e6) :: !alloc;
        majors := Float.of_int (m1 - m0) :: !majors
      end;
      last_iter := now () -. iter_start
  done;
  if opts.trace_file = None then (try Sys.remove trace_file with Sys_error _ -> ());
  let op_s = median !plain in
  let n_plain = List.length !plain in
  let reconcile = ref [] in
  let metrics =
    if not opts.trace then
      [ ("op_s", op_s, n_plain); ("setup_s", setup_s, setup_reps); ("peak_rss_mb", peak_rss_mb (), 1) ]
    else begin
      let n_traced = List.length !traced_s in
      let total = ledger.total_us in
      let self k = Option.value ~default:0.0 (Hashtbl.find_opt ledger.self_us k) in
      let mapped = List.concat_map snd w.shares in
      let unattributed = total -. List.fold_left (fun a k -> a +. self k) 0.0 mapped in
      Printf.printf "%s reconcile: layers %.4f s + unattributed %.4f s = traced total %.4f s (%d ops)\n"
        w.name ((total -. unattributed) /. 1e6) (unattributed /. 1e6) (total /. 1e6) ledger.ops;
      reconcile :=
        [ ("layers_s", Json.Float ((total -. unattributed) /. 1e6));
          ("unattributed_s", Json.Float (unattributed /. 1e6)); ("total_s", Json.Float (total /. 1e6));
          ("traced_ops", Json.Int ledger.ops) ];
      let pct us = 100.0 *. us /. total in
      let setup_total = prep_last +. warm_s in
      let setup_shares =
        List.fold_left
          (fun acc (p, t) ->
            let k = "setup." ^ p ^ "_pct" in
            (k, 100.0 *. t /. setup_total +. Option.value ~default:0.0 (List.assoc_opt k acc))
            :: List.remove_assoc k acc)
          [] (prep_ph.spent @ warm_ph.spent)
      in
      let per_op k = Float.of_int (Option.value ~default:0 (Hashtbl.find_opt ledger.spans k)) /. Float.of_int ledger.ops in
      let with_n n = List.map (fun (m, v) -> (m, (v, n))) in
      let values =
        [
          ("trace_overhead_pct", (100.0 *. (median !traced_s -. op_s) /. op_s, n_traced));
          ("unattributed_pct", (pct unattributed, n_traced));
          ("alloc_mb_per_op", (median !alloc, n_plain));
          ("major_gcs_per_op", (median !majors, n_plain));
        ]
        @ with_n 1 setup_shares
        @ with_n n_traced
            (List.map (fun (m, keys) -> (m, pct (List.fold_left (fun a k -> a +. self k) 0.0 keys))) w.shares)
        @ with_n n_traced (List.map (fun (m, k) -> (m, per_op k)) w.counts)
        @ with_n (1 + n_plain + n_traced) reference.pins
        @ with_n rns_reps (rns_probe ~seed:opts.seed (bert_params ()) "w1")
        @ with_n rns_reps (rns_probe ~seed:opts.seed (Lazy.force Params.boot) "w2")
        @ with_n 1 (inst.probe ~op_s)
      in
      List.iter
        (fun (m, _) ->
          if not (List.mem_assoc m per_layer) then failwith ("e2e: metric missing from the catalog: " ^ m))
        values;
      (* layers this workload does not exercise read 0, from 0 samples *)
      List.map
        (fun (m, _) ->
          let v, n = Option.value ~default:(0.0, 0) (List.assoc_opt m values) in
          (m, v, n))
        per_layer
    end
  in
  let units = if opts.trace then per_layer else end_to_end in
  List.iter
    (fun (m, v, n) ->
      if n > 0 then Printf.printf "%s %s %.6g %s (n=%d)\n" w.name m v (List.assoc m units) n)
    metrics;
  let correct = !failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metric_json =
    Json.Obj
      (List.map
         (fun (m, v, _) ->
           (m, Json.Obj [ ("value", Json.Float (if Float.is_finite v then v else 0.0));
                          ("unit", Json.Str (List.assoc m units)) ]))
         metrics)
  in
  let result =
    Json.Obj
      [ ("correct", Json.Bool correct); ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed); ("metrics", metric_json) ]
  in
  Option.iter
    (fun dir ->
      let file =
        Filename.concat dir
          (Printf.sprintf "%s-s%d%s.json" w.name opts.seed (if opts.trace then "-trace" else ""))
      in
      let floats xs = Json.List (List.rev_map (fun x -> Json.Float x) xs) in
      let doc =
        Json.Obj
          ([
            ("workload", Json.Str w.name); ("seed", Json.Int opts.seed);
            ("seconds", Json.Float opts.seconds); ("trace", Json.Int (if opts.trace then 1 else 0));
            ("host", host_json ()); ("result", result);
            ("samples", Json.Obj [ ("op_s", floats !plain); ("setup_prep_s", floats !prep_times);
                                   ("warmup_s", Json.Float warm_s) ]);
            ("pins", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) reference.pins));
          ]
          @ if opts.trace then [ ("reconcile", Json.Obj !reconcile) ] else [])
      in
      Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string doc ^ "\n")))
    opts.out;
  print_endline (Json.to_string ~compact:true result)

(* ------------------------------------------------------------ all runs *)

(* Each workload in a fresh process: set-up time, peak RSS and the
   result cache are then per workload. *)
let run_all opts =
  Printf.printf "host %s\n%!" (Json.to_string ~compact:true (host_json ()));
  let ok =
    List.fold_left
      (fun ok w ->
        let args =
          [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int opts.seed;
            "--seconds"; Printf.sprintf "%g" opts.seconds; "--trace"; (if opts.trace then "1" else "0") ]
          @ (match opts.out with Some d -> [ "--out"; d ] | None -> [])
          @ match opts.trace_file with Some f -> [ "--trace-file"; f ^ "." ^ w.name ] | None -> []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let rec pump last =
          match In_channel.input_line ic with
          | Some l ->
            print_endline l;
            pump (Some l)
          | None -> last
        in
        let last = pump None in
        let status = Unix.close_process_in ic in
        let passed =
          match (status, Option.map Json.of_string last) with
          | Unix.WEXITED 0, Some (Ok r) ->
            Json.member "correct" r = Some (Json.Bool true)
            && Option.bind (Json.member "failed" r) Json.to_int = Some 0
          | _ -> false
        in
        if not passed then Printf.printf "%s: FAILED\n%!" w.name;
        ok && passed)
      true workloads
  in
  exit (if ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--trace-file FILE]";
  prerr_endline ("workloads: " ^ String.concat " " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let rec parse o = function
    | [] -> o
    | "--workload" :: v :: rest -> parse { o with workload = Some v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some s -> parse { o with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> parse { o with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = v = "1" } rest
    | "--out" :: v :: rest -> parse { o with out = Some v } rest
    | "--trace-file" :: v :: rest -> parse { o with trace_file = Some v } rest
    | _ -> usage ()
  in
  let opts =
    parse
      { workload = None; seed = 42; seconds = 18.0; trace = false; out = None; trace_file = None }
      (List.tl (Array.to_list Sys.argv))
  in
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) opts.out;
  match opts.workload with
  | None -> run_all opts
  | Some name -> (
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> run_workload opts w
    | None -> usage ())
