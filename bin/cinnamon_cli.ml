(* The cinnamon command-line tool.

   Subcommands:
     compile   — compile a named kernel for a chip count; print pipeline
                 statistics, the keyswitch-pass report, and optionally
                 the ISA histogram
     simulate  — compile + cycle-simulate a kernel on a configuration
     bench     — run a paper benchmark (bootstrap/resnet/helr/bert) on a
                 system and report time and utilization
     arch      — print the area and yield/cost models (Tables 1 and 3)

   Kernel, benchmark and system names resolve through the registries in
   Cinnamon_workloads (Specs.kernels/benchmarks, Runner.systems);
   `compile --list` and `bench --list` print them.  Every work
   subcommand takes --trace FILE (Chrome trace-event JSON of compiler
   passes and per-chip simulator activity) and --metrics (plain-text
   span/counter/stall report).

   Examples:
     cinnamon compile bootstrap-13 --chips 4
     cinnamon simulate bootstrap-13 --chips 8 --link-gbps 512 --trace /tmp/t.json
     cinnamon bench bert --system cinnamon-12 --metrics
     cinnamon bench bert --system cinnamon-12 --jobs 4 --cache-dir _cinnamon_cache
     cinnamon arch *)

open Cmdliner
open Cinnamon_workloads
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator
module CC = Cinnamon_compiler.Compile_config
module T = Cinnamon_util.Table
module Tel = Cinnamon_telemetry.Telemetry

(* Registry names stay plain strings at the cmdliner layer and resolve
   inside the guarded command body, so an unknown name exits with the
   typed unknown-name code (3) and the uniform "error:" prefix rather
   than cmdliner's generic CLI-error code. *)
let kernel_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"KERNEL")

let ok_or_unknown = function
  | Ok v -> v
  | Error msg -> Cinnamon_util.Error.fail Cinnamon_util.Error.Unknown_name msg

let chips_arg = Arg.(value & opt int 4 & info [ "chips" ] ~docv:"N" ~doc:"Number of chips.")

let link_arg =
  Arg.(value & opt float 256.0 & info [ "link-gbps" ] ~docv:"GB/S" ~doc:"Per-PHY link bandwidth.")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print instruction histograms.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run the multi-stage static verifier over the compiled artifacts (ciphertext IR, \
           polynomial IR, limb IR, per-chip ISA).  Prints $(b,verify: ok) and the check \
           cost on success; prints every violation and exits with code 5 on failure.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List the registry entries and exit.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto). \
           Compiler passes appear on pid 0 in wall time; simulator activity on pid 1+chip \
           with one cycle rendered as one microsecond.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print a telemetry report: pass timings, counters, and per-chip stall causes.")

(* Enable the telemetry sink for the duration of [f] when --trace or
   --metrics asked for it, then export. *)
let with_telemetry ~trace ~metrics f =
  if trace <> None || metrics then Tel.enable ();
  let code = f () in
  let code =
    match trace with
    | Some file -> (
      try
        Tel.write_chrome_trace file;
        Printf.printf "trace: wrote %d events to %s\n" (Tel.event_count ()) file;
        code
      with Sys_error msg ->
        Printf.eprintf "error: cannot write trace file: %s\n" msg;
        max code 1)
    | None -> code
  in
  if metrics then begin
    print_newline ();
    print_string (Tel.report ())
  end;
  code

let print_stall_table (res : Sim.result) =
  let t =
    T.create ~title:"Per-chip cycle accounting"
      ~header:[ "Chip"; "Busy"; "Operand"; "FU busy"; "HBM"; "Network"; "Idle"; "Total" ]
      ~aligns:(T.Left :: List.init 7 (fun _ -> T.Right))
      ()
  in
  Array.iteri
    (fun i (cs : Sim.chip_stats) ->
      T.add_row t
        [ string_of_int i; string_of_int cs.Sim.cs_busy; string_of_int cs.Sim.cs_stall_operand;
          string_of_int cs.Sim.cs_stall_fu; string_of_int cs.Sim.cs_stall_hbm;
          string_of_int cs.Sim.cs_stall_network; string_of_int cs.Sim.cs_idle;
          string_of_int cs.Sim.cs_total ])
    res.Sim.per_chip_stats;
  T.print t

let print_kernel_registry () =
  Printf.printf "kernels:\n";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Specs.kernels;
  Printf.printf "  matvec-<n>\n"

let print_bench_registry () =
  Printf.printf "benchmarks:\n";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Specs.benchmarks;
  Printf.printf "systems:\n";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Runner.systems

let missing_positional what =
  Printf.eprintf "error: missing %s argument (use --list to see the registry)\n" what;
  Cinnamon_util.Error.exit_code Cinnamon_util.Error.Invalid_input

(* Typed-diagnostic boundary: every subcommand body runs under this, so
   a [Cinnamon_util.Error] surfaces as "error: <kind>: <message>" and a
   kind-specific exit code (invalid-input 2, unknown-name 3, capacity 4,
   verification 5, internal 70) instead of a backtrace. *)
let guarded f =
  try f () with
  | Cinnamon_util.Error.Error e ->
    Printf.eprintf "error: %s\n" (Cinnamon_util.Error.to_string e);
    Cinnamon_util.Error.exit_code e.Cinnamon_util.Error.kind
  | Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    Cinnamon_util.Error.exit_code Cinnamon_util.Error.Invalid_input

let config_of ~chips ~link =
  let topology = if chips > 8 then SC.Switch else SC.Ring in
  SC.with_link_gbps { (SC.cinnamon_chip ~chips ~topology) with SC.name = Printf.sprintf "Cinnamon-%d" chips } link

let do_compile_kernel kernel chips verify verbose =
  let prog = Specs.kernel_program kernel in
  let cfg = CC.paper ~chips () in
  let t0 = Sys.time () in
  let r = Cinnamon_compiler.Pipeline.compile cfg prog in
  let compile_s = Sys.time () -. t0 in
  Printf.printf "%s\n" (Cinnamon_compiler.Pipeline.summary r);
  let verify_failed =
    verify
    &&
    let t1 = Sys.time () in
    match Cinnamon_compiler.Pipeline.verify r with
    | [] ->
      let verify_s = Sys.time () -. t1 in
      Printf.printf "verify: ok (%d rules over 4 stages, %.3fs = %.1f%% of compile)\n"
        (List.length Cinnamon_compiler.Verify.rules)
        verify_s
        (100.0 *. verify_s /. Float.max compile_s 1e-9);
      false
    | vs ->
      List.iter
        (fun v -> Format.eprintf "error: verify: %a@." Cinnamon_compiler.Verify.pp_violation v)
        vs;
      Printf.eprintf "error: verification: %d violation(s)\n" (List.length vs);
      true
  in
  if verify_failed then Cinnamon_util.Error.exit_code Cinnamon_util.Error.Verification
  else begin
  let est = Cinnamon_compiler.Noise.analyze prog in
  Format.printf "static noise: %a%s@." Cinnamon_compiler.Noise.pp est
    (if Cinnamon_compiler.Noise.validate est then " (valid)" else " (NOISE BUDGET EXCEEDED)");
  let rep = r.Cinnamon_compiler.Pipeline.ks_report in
  Printf.printf
    "keyswitch pass: pattern-A %d groups (%d sites), pattern-B %d groups (%d sites), lone %d, total %d\n"
    rep.Cinnamon_compiler.Keyswitch_pass.pattern_a_groups
    rep.Cinnamon_compiler.Keyswitch_pass.pattern_a_sites
    rep.Cinnamon_compiler.Keyswitch_pass.pattern_b_groups
    rep.Cinnamon_compiler.Keyswitch_pass.pattern_b_sites
    rep.Cinnamon_compiler.Keyswitch_pass.unbatched_sites
    rep.Cinnamon_compiler.Keyswitch_pass.total_sites;
  Array.iteri
    (fun i stats ->
      Printf.printf "chip %d regalloc: %d spills, %d reloads, peak %d live\n" i
        stats.Cinnamon_compiler.Regalloc.spills stats.Cinnamon_compiler.Regalloc.reloads
        stats.Cinnamon_compiler.Regalloc.peak_live)
    r.Cinnamon_compiler.Pipeline.regalloc;
  let check = Cinnamon_emulator.Check.check r.Cinnamon_compiler.Pipeline.machine in
  Format.printf "structural check: %a@." Cinnamon_emulator.Check.pp_report check;
  if verbose then
    Array.iter
      (fun p ->
        Printf.printf "chip %d histogram:\n" p.Cinnamon_isa.Isa.chip;
        List.iter (fun (m, c) -> Printf.printf "  %-8s %8d\n" m c) (Cinnamon_isa.Isa.histogram p);
        Printf.printf "chip %d first instructions:\n" p.Cinnamon_isa.Isa.chip;
        Array.iteri
          (fun i ins ->
            if i < 24 then Format.printf "  %4d: %a@." i Cinnamon_isa.Isa.pp_instr ins)
          p.Cinnamon_isa.Isa.instrs)
      r.Cinnamon_compiler.Pipeline.machine.Cinnamon_isa.Isa.programs;
    0
  end

let do_compile kernel chips verify verbose list trace metrics =
  if list then begin
    print_kernel_registry ();
    0
  end
  else
    match kernel with
    | None -> missing_positional "KERNEL"
    | Some name ->
      with_telemetry ~trace ~metrics @@ fun () ->
      guarded @@ fun () ->
      do_compile_kernel (ok_or_unknown (Specs.find_kernel name)) chips verify verbose

let do_simulate kernel chips link list trace metrics =
  if list then begin
    print_kernel_registry ();
    0
  end
  else
    match kernel with
    | None -> missing_positional "KERNEL"
    | Some name ->
      with_telemetry ~trace ~metrics @@ fun () ->
      guarded @@ fun () ->
      let kernel = ok_or_unknown (Specs.find_kernel name) in
      let prog = Specs.kernel_program kernel in
      let cfg = CC.paper ~chips () in
      let r = Cinnamon_compiler.Pipeline.compile cfg prog in
      let sc = config_of ~chips ~link in
      let res = Sim.run sc r.Cinnamon_compiler.Pipeline.machine in
      Printf.printf "%s on %s (%g GB/s links): %s\n" (Specs.kernel_name kernel) sc.SC.name link
        (T.fmt_time res.Sim.seconds);
      Printf.printf "utilization: compute %.0f%%, memory %.0f%%, network %.0f%%\n"
        (100.0 *. res.Sim.util.Sim.compute) (100.0 *. res.Sim.util.Sim.memory)
        (100.0 *. res.Sim.util.Sim.network);
      if metrics then print_stall_table res;
      0

let bench_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
let system_arg = Arg.(value & opt string "cinnamon-4" & info [ "system" ] ~docv:"SYS")

(* --jobs must be a positive worker count when given; omitting the
   flag means Domain.recommended_domain_count.  0 and negatives are
   rejected here with a cmdliner error instead of reaching
   Pool.create. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "JOBS must be >= 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "JOBS must be an integer >= 1, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for kernel compilation+simulation (>= 1; omit for \
           Domain.recommended_domain_count, 1 = sequential).  Results are identical for \
           every value.")

(* None (flag omitted) -> 0, the library-level recommended-count sentinel. *)
let resolve_jobs = function None -> 0 | Some n -> n

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist simulation results as JSON under $(docv) (conventionally \
           _cinnamon_cache/); later runs with the same configurations skip re-simulation.")

let do_bench bench system verify jobs cache_dir list trace metrics =
  if list then begin
    print_bench_registry ();
    0
  end
  else
    match bench with
    | None -> missing_positional "BENCHMARK"
    | Some bench_name ->
      with_telemetry ~trace ~metrics @@ fun () ->
      guarded @@ fun () ->
      Cinnamon_exec.Result_cache.set_dir cache_dir;
      let bench = ok_or_unknown (Specs.find_benchmark bench_name) in
      let system = ok_or_unknown (Runner.find_system system) in
      let r =
        List.hd (Runner.run_benchmarks ~jobs:(resolve_jobs jobs) ~verify [ (system, bench) ])
      in
      if verify then
        (* a violation would have raised out of the compile; reaching
           here means every freshly compiled segment checked out *)
        Printf.printf "verify: ok (all fresh segment compiles verified)\n";
      Printf.printf "%s on %s: %s\n" r.Runner.br_bench r.Runner.br_system
        (T.fmt_time r.Runner.br_seconds);
      List.iter
        (fun s -> Printf.printf "  %-14s %s\n" s.Runner.seg_kernel (T.fmt_time s.Runner.seg_seconds))
        r.Runner.br_segments;
      (match List.assoc_opt r.Runner.br_system bench.Specs.paper_times with
      | Some p -> Printf.printf "paper-reported: %s\n" (T.fmt_time p)
      | None -> ());
      0

(* serve-sim: play a generated request stream through a one-node fleet
   on the virtual-time serving layer and report SLO metrics. *)
module Loadtest = Cinnamon_fleet.Loadtest
module Node = Cinnamon_serve.Node

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Use the quick preset (80 bootstrap requests, finishes in seconds); otherwise \
              the default preset (300 requests, bootstrap/resnet mix).")

let mode_arg =
  Arg.(
    value
    & opt (some (enum [ ("open", `Open); ("closed", `Closed) ])) None
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Client model: $(b,open) = Poisson open loop, $(b,closed) = fixed client pool \
              with think time.  Defaults to the preset's mode (open).")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N" ~doc:"Total requests to issue (default: preset).")

let overload_arg =
  Arg.(
    value & opt float 4.0
    & info [ "overload" ] ~docv:"X"
        ~doc:"Open loop: offered load as a multiple of server capacity (> 1 provokes \
              queueing and shedding).")

let clients_arg =
  Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Closed loop: concurrent clients.")

let think_arg =
  Arg.(
    value & opt float 0.5
    & info [ "think-factor" ] ~docv:"X"
        ~doc:"Closed loop: think time as a multiple of the mean service time.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Load-generator random seed (default: preset).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-factor" ] ~docv:"X"
        ~doc:"Deadline = arrival + $(docv) x the class's calibrated service time (default: \
              preset).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N" ~doc:"Simulated parallel executors (default: preset).")

let capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-capacity" ] ~docv:"N" ~doc:"Admission queue bound (default: preset).")

let max_batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-batch" ] ~docv:"N"
        ~doc:"Upper bound on dynamic batch size; each batch is also capped by the ring's \
              CKKS slot count (default: preset).")

let bench_json_arg =
  Arg.(
    value & opt string "BENCH_cinnamon.json"
    & info [ "bench-json" ] ~docv:"FILE"
        ~doc:"Merge the run's $(b,serve_loadtest) section into this perf-trajectory \
              artifact, preserving its other sections.")

let do_serve_sim quick mode requests overload clients think seed deadline workers capacity
    max_batch jobs cache_dir bench_json trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  Cinnamon_exec.Result_cache.set_dir cache_dir;
  let base = if quick then Loadtest.quick else Loadtest.default in
  let lg_mode =
    match mode with
    | None -> base.Loadtest.lg_mode
    | Some `Open -> Loadtest.Open_loop { overload }
    | Some `Closed -> Loadtest.Closed_loop { clients; think_factor = think }
  in
  let opt v dflt = Option.value v ~default:dflt in
  let node_capacity =
    {
      base.Loadtest.lg_capacity with
      Node.workers = opt workers base.Loadtest.lg_capacity.Node.workers;
      queue_capacity = opt capacity base.Loadtest.lg_capacity.Node.queue_capacity;
      max_batch = opt max_batch base.Loadtest.lg_capacity.Node.max_batch;
    }
  in
  let cfg =
    {
      base with
      Loadtest.lg_mode;
      lg_requests = opt requests base.Loadtest.lg_requests;
      lg_seed = opt seed base.Loadtest.lg_seed;
      lg_deadline_factor = opt deadline base.Loadtest.lg_deadline_factor;
      lg_capacity = node_capacity;
      lg_jobs = resolve_jobs jobs;
    }
  in
  guarded @@ fun () ->
  let r = Loadtest.run cfg in
  Loadtest.print_result r;
  Loadtest.write_section ~file:bench_json r;
  Printf.printf "serve_loadtest: merged %s section into %s\n" r.Loadtest.lr_mode bench_json;
  0

(* serve-fleet: sweep fleet sizes under Poisson/diurnal traces for each
   routing policy (lib/fleet) and merge the scaling-efficiency curves
   into the perf artifact. *)
module Fleet_bench = Cinnamon_fleet.Fleet_bench
module Tenant_bench = Cinnamon_fleet.Tenant_bench
module Router = Cinnamon_fleet.Router

let fleet_quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Use the quick preset (600 requests, fleets of 1/2/4 nodes) instead of the \
              full sweep (million-request traces over 1..64 nodes).")

let nodes_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "nodes" ] ~docv:"N,N,.."
        ~doc:"Fleet sizes to sweep, comma-separated ascending (default: preset).")

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Routing policy: $(b,round_robin), $(b,least_loaded), $(b,locality) or \
              $(b,all) (default: all).")

let trace_shape_arg =
  Arg.(
    value
    & opt (some (enum [ ("poisson", `Poisson); ("diurnal", `Diurnal); ("both", `Both) ])) None
    & info [ "trace-shape" ] ~docv:"SHAPE"
        ~doc:"Arrival trace: $(b,poisson), $(b,diurnal) or $(b,both) (default: both).")

let fleet_overload_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "overload" ] ~docv:"X"
        ~doc:"Offered load as a multiple of aggregate fleet capacity (default: preset).")

let key_slots_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "key-slots" ] ~docv:"N"
        ~doc:"Per-node warm-key cache capacity, in resident key sets (default: preset).")

let key_load_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "key-load-factor" ] ~docv:"X"
        ~doc:"Modeled HBM key-load penalty on a cold dispatch, as a multiple of the mean \
              service time (default: preset).")

let no_autoscale_arg =
  Arg.(value & flag & info [ "no-autoscale" ] ~doc:"Skip the autoscaler demo runs.")

let tenants_arg =
  Arg.(
    value
    & opt ~vopt:(Some 64) (some int) None
    & info [ "tenants" ] ~docv:"N"
        ~doc:"Run the multi-tenant serving benchmark instead of the size sweep: $(docv) \
              tenants (default 64) behind a zipf popularity curve, per-tenant key epochs \
              rotating mid-trace, residency-aware routing and a transciphering ingress. \
              Merges the $(b,tenant_serving) section into the perf artifact.")

let tenant_skew_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tenant-skew" ] ~docv:"S"
        ~doc:"Zipf exponent of the tenant popularity curve (default: preset; 0 = uniform).")

let do_serve_tenants quick tenants nodes requests overload seed deadline key_load skew jobs
    bench_json =
  let base = if quick then Tenant_bench.quick else Tenant_bench.full in
  let opt v dflt = Option.value v ~default:dflt in
  let cfg =
    {
      base with
      Tenant_bench.tb_tenants = tenants;
      tb_nodes =
        (match nodes with
        | Some ns -> List.fold_left max 1 ns
        | None -> base.Tenant_bench.tb_nodes);
      tb_requests = opt requests base.Tenant_bench.tb_requests;
      tb_seed = opt seed base.Tenant_bench.tb_seed;
      tb_overload = opt overload base.Tenant_bench.tb_overload;
      tb_deadline_factor = opt deadline base.Tenant_bench.tb_deadline_factor;
      tb_key_load_factor = opt key_load base.Tenant_bench.tb_key_load_factor;
      tb_tenant_skew = opt skew base.Tenant_bench.tb_tenant_skew;
      tb_jobs = resolve_jobs jobs;
    }
  in
  let r = Tenant_bench.run cfg in
  Tenant_bench.print_result r;
  Tenant_bench.write_section ~file:bench_json r;
  Printf.printf "\ntenant_serving: merged section into %s\n" bench_json;
  0

let do_serve_fleet quick nodes policy trace_shape requests overload seed deadline key_slots
    key_load no_autoscale tenants tenant_skew jobs cache_dir bench_json trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  Cinnamon_exec.Result_cache.set_dir cache_dir;
  guarded @@ fun () ->
  match tenants with
  | Some n ->
    do_serve_tenants quick n nodes requests overload seed deadline key_load tenant_skew jobs
      bench_json
  | None ->
  let base = if quick then Fleet_bench.quick else Fleet_bench.full in
  let opt v dflt = Option.value v ~default:dflt in
  let policies =
    match policy with
    | None | Some "all" -> Router.all_policies
    | Some s -> (
      match Router.policy_of_string s with
      | Some p -> [ p ]
      | None ->
        Cinnamon_util.Error.fail Cinnamon_util.Error.Invalid_input
          (Printf.sprintf "unknown policy %S (want round_robin, least_loaded, locality or all)" s))
  in
  let shapes =
    match trace_shape with
    | None | Some `Both -> [ `Poisson; `Diurnal ]
    | Some `Poisson -> [ `Poisson ]
    | Some `Diurnal -> [ `Diurnal ]
  in
  let cfg =
    {
      base with
      Fleet_bench.fb_nodes = opt nodes base.Fleet_bench.fb_nodes;
      fb_policies = policies;
      fb_shapes = shapes;
      fb_requests = opt requests base.Fleet_bench.fb_requests;
      fb_seed = opt seed base.Fleet_bench.fb_seed;
      fb_overload = opt overload base.Fleet_bench.fb_overload;
      fb_deadline_factor = opt deadline base.Fleet_bench.fb_deadline_factor;
      fb_key_slots = opt key_slots base.Fleet_bench.fb_key_slots;
      fb_key_load_factor = opt key_load base.Fleet_bench.fb_key_load_factor;
      fb_autoscale = base.Fleet_bench.fb_autoscale && not no_autoscale;
      fb_jobs = resolve_jobs jobs;
    }
  in
  let r = Fleet_bench.run cfg in
  Fleet_bench.print_result r;
  Fleet_bench.write_section ~file:bench_json r;
  Printf.printf "\nserve_fleet: merged section into %s\n" bench_json;
  0

let do_arch () =
  let a = Lazy.force Cinnamon_arch.Area.cinnamon_chip in
  Printf.printf "Cinnamon chip: %.2f mm^2 (paper: 223.18)\n" a.Cinnamon_arch.Area.total_mm2;
  List.iter
    (fun (acc : Cinnamon_arch.Yield.accelerator) ->
      let r = Cinnamon_arch.Yield.row acc in
      Printf.printf "  %-12s %7.1f mm^2  yield %3.0f%%  %4d dies/wafer\n" r.Cinnamon_arch.Yield.r_name
        r.Cinnamon_arch.Yield.r_area
        (100.0 *. r.Cinnamon_arch.Yield.r_yield)
        r.Cinnamon_arch.Yield.r_dies_per_wafer)
    Cinnamon_arch.Yield.table3;
  0

let compile_cmd =
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel through the Cinnamon pipeline")
    Term.(
      const do_compile $ kernel_arg $ chips_arg $ verify_arg $ verbose_arg $ list_arg $ trace_arg
      $ metrics_arg)

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Compile and cycle-simulate a kernel")
    Term.(const do_simulate $ kernel_arg $ chips_arg $ link_arg $ list_arg $ trace_arg $ metrics_arg)

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Run a paper benchmark on a system")
    Term.(
      const do_bench $ bench_arg $ system_arg $ verify_arg $ jobs_arg $ cache_dir_arg $ list_arg
      $ trace_arg $ metrics_arg)

let serve_sim_cmd =
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Simulate an encrypted-inference serving deployment: generate a request stream \
          (Poisson open loop or closed loop), play it through the admission queue, dynamic \
          batcher and virtual-time scheduler, and report latency percentiles, goodput and \
          shed rate.")
    Term.(
      const do_serve_sim $ quick_arg $ mode_arg $ requests_arg $ overload_arg $ clients_arg
      $ think_arg $ seed_arg $ deadline_arg $ workers_arg $ capacity_arg $ max_batch_arg
      $ jobs_arg $ cache_dir_arg $ bench_json_arg $ trace_arg $ metrics_arg)

let serve_fleet_cmd =
  Cmd.v
    (Cmd.info "serve-fleet"
       ~doc:
         "Simulate a multi-node serving fleet: sweep fleet sizes under Poisson and diurnal \
          request traces for each routing policy (round-robin, least-loaded, \
          locality-aware), demo the SLO-driven autoscaler, and merge per-policy \
          scaling-efficiency curves into the perf artifact.")
    Term.(
      const do_serve_fleet $ fleet_quick_arg $ nodes_arg $ policy_arg $ trace_shape_arg
      $ requests_arg $ fleet_overload_arg $ seed_arg $ deadline_arg $ key_slots_arg $ key_load_arg
      $ no_autoscale_arg $ tenants_arg $ tenant_skew_arg $ jobs_arg $ cache_dir_arg
      $ bench_json_arg $ trace_arg $ metrics_arg)

let arch_cmd =
  Cmd.v (Cmd.info "arch" ~doc:"Print area and yield models") Term.(const do_arch $ const ())

let () =
  let info = Cmd.info "cinnamon" ~version:"1.0.0" ~doc:"Scale-out encrypted AI toolchain" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ compile_cmd; simulate_cmd; bench_cmd; serve_sim_cmd; serve_fleet_cmd; arch_cmd ]))
