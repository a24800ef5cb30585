(* The Cinnamon benchmark harness.

   Regenerates every table and figure of the paper's evaluation
   (Tables 1-3, Figures 6, 11-16, and the §4.3.1 / §7.4 headline
   claims), printing measured-vs-paper values; EXPERIMENTS.md records
   the comparison.  Also times the functional OCaml kernels (NTT,
   base conversion, automorphism, keyswitch, output-aggregation
   keyswitch, hoisted rotations); the measured NTT calibrates the CPU
   baseline.

   Usage: main.exe [section ...] [--jobs N] [--quick] [--cache-dir DIR]
                   [--bench-out FILE] [--trace FILE] [--metrics]
     sections: table1 table2 table3 fig6 fig11 fig12 fig13 fig14 fig15
               fig16 sec43 sec74 ablation characterize energy kernels
               nn   (default: all)
     --jobs N        worker domains for the Table-2/Fig-11 sweep
                     (0 = Domain.recommended_domain_count; 1 = sequential;
                     negative N exits 2)
     --quick         restrict the sweep to the Bootstrap benchmark,
                     shrink the kernel microbench to N=2^12, and
                     default the section list to "table2 kernels nn"
                     (CI smoke run)
     --cache-dir DIR persist simulation results under DIR
                     (conventionally _cinnamon_cache/); warm runs skip
                     re-simulation entirely
     --bench-out F   the perf artifact the recording sections merge
                     into (default BENCH_cinnamon.json; "-" disables)
     --trace FILE    write a Chrome trace-event JSON of the run
     --metrics       print the telemetry report (pass timings, counters,
                     simulation-cache hits/misses) after the sections

   An unknown section name exits 2 before any section runs.

   Three sections record into the perf artifact, each merging only its
   own keys through Cinnamon_exec.Bench_file: the Table-2 sweep writes
   "kernels" and "benchmarks", kernels writes "kernel_microbench", and
   nn writes "nn_frontend".  A run that recorded anything then merges
   the header keys (generated_by, jobs, quick, wall_seconds, cache);
   every other section of the file (the serving sections written by
   `cinnamon serve-sim` and `cinnamon serve-fleet`) is kept as is.

   Run time for the full set is dominated by kernel compilation; the
   result cache in Cinnamon_exec shares compiled+simulated kernels
   across sections (and, with --cache-dir, across runs). *)

open Cinnamon_workloads
module T = Cinnamon_util.Table
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator
module CC = Cinnamon_compiler.Compile_config
module PD = Cinnamon_arch.Paper_data
module Tel = Cinnamon_telemetry.Telemetry
module Exec = Cinnamon_exec
module Json = Cinnamon_util.Json

let jobs = ref 0 (* resolved to Pool.default_jobs () after parsing when 0 *)
let quick = ref false

let section_header name = Printf.printf "\n################ %s ################\n%!" name

(* The perf artifact and the keys this run merged into it, in order. *)
let bench_out = ref "BENCH_cinnamon.json"
let recorded : string list ref = ref []

let record key json =
  recorded := !recorded @ [ key ];
  if !bench_out <> "-" then Exec.Bench_file.merge_section ~file:!bench_out key (fun _ -> json)

(* ---------------------------------------------------------------- Table 1 *)

let table1 () =
  section_header "Table 1: per-component area breakdown (22 nm)";
  let a = Lazy.force Cinnamon_arch.Area.cinnamon_chip in
  let t = T.create ~title:"Cinnamon chip area" ~header:[ "Component"; "Area (mm^2)" ]
      ~aligns:[ T.Left; T.Right ] () in
  List.iter
    (fun (c : Cinnamon_arch.Area.component) ->
      T.add_row t [ Printf.sprintf "%dx %s" c.count c.comp_name;
                    T.fmt_float ~digits:2 (c.area_mm2 *. Float.of_int c.count) ])
    a.Cinnamon_arch.Area.components;
  T.add_row t [ "Total FU area"; T.fmt_float ~digits:2 a.fu_area ];
  T.add_row t [ "BCU buffers (2.85MB)"; T.fmt_float ~digits:2 a.bcu_buffers_mm2 ];
  T.add_row t [ "Register file (56MB)"; T.fmt_float ~digits:2 a.register_file_mm2 ];
  T.add_row t [ "4x HBM PHY"; T.fmt_float ~digits:2 a.hbm_phy_mm2 ];
  T.add_row t [ "2x Network PHY"; T.fmt_float ~digits:2 a.net_phy_mm2 ];
  T.add_row t [ "Total chip area"; T.fmt_float ~digits:2 a.total_mm2 ];
  T.print t;
  Printf.printf "Paper total: 223.18 mm^2; model: %.2f mm^2\n" a.total_mm2;
  let m = Lazy.force Cinnamon_arch.Area.cinnamon_m in
  Printf.printf "Cinnamon-M model: %.2f mm^2 (paper: 719.78 mm^2)\n" m.Cinnamon_arch.Area.total_mm2;
  let b = Cinnamon_arch.Area.bcu_comparison in
  Printf.printf
    "Compact BCU (s4.7): multipliers %d -> %d (%.1fx), buffers %.2fMB -> %.2fMB (%.1fx)\n"
    b.craterlake_multipliers b.cinnamon_multipliers
    (Float.of_int b.craterlake_multipliers /. Float.of_int b.cinnamon_multipliers)
    b.craterlake_buffer_mb b.cinnamon_buffer_mb
    (b.craterlake_buffer_mb /. b.cinnamon_buffer_mb)

(* ---------------------------------------------------------------- Table 3 *)

let table3 () =
  section_header "Table 3: manufacturing yield and tape-out cost";
  let t =
    T.create ~title:"Yield model (D0=0.2/cm^2, alpha=3, 300mm wafer)"
      ~header:[ "Accelerator"; "Die (mm^2)"; "Yield (model)"; "Yield (paper)"; "Dies/wafer"; "Rel. cost/die" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ] ()
  in
  let base_cost =
    Cinnamon_arch.Yield.cost_per_good_die
      ~area_mm2:Cinnamon_arch.Yield.cinnamon.die_area_mm2
      ~wafer_price:Cinnamon_arch.Yield.cinnamon.wafer_price
  in
  List.iter
    (fun (a : Cinnamon_arch.Yield.accelerator) ->
      let r = Cinnamon_arch.Yield.row a in
      let paper_y =
        match List.assoc_opt a.accel_name Cinnamon_arch.Yield.paper_yields with
        | Some y -> Printf.sprintf "%.0f%%" (100.0 *. y)
        | None -> "-"
      in
      T.add_row t
        [ r.r_name; T.fmt_float ~digits:1 r.r_area;
          Printf.sprintf "%.0f%%" (100.0 *. r.r_yield); paper_y;
          string_of_int r.r_dies_per_wafer; T.fmt_float (r.r_cost_per_die /. base_cost) ])
    Cinnamon_arch.Yield.table3;
  T.print t

(* --------------------------------------------- Table 2 / Fig. 11 / Fig. 15 *)

let measured_table2 : (string * string, float) Hashtbl.t = Hashtbl.create 16
let measured_util : (string * string, Sim.utilization) Hashtbl.t = Hashtbl.create 16
let sweep_state : Runner.sweep option ref = ref None

let bench_list () = if !quick then [ Specs.bootstrap_13 ] else Specs.all

(* The Table-2/Fig-11 sweep: every benchmark on every system, fanned
   across the domain pool.  Runs once; table2/fig11/fig12/fig15 all
   read the memoized results.  Numbers are identical for every --jobs
   value (the pool only warms the result cache; composition is
   sequential). *)
let run_table2 () =
  if !sweep_state = None then begin
    let pairs =
      List.concat_map
        (fun (b : Specs.benchmark) -> List.map (fun sys -> (sys, b)) Runner.all_systems)
        (bench_list ())
    in
    let sw = Runner.run_sweep ~jobs:!jobs pairs in
    List.iter
      (fun (r : Runner.bench_result) ->
        Hashtbl.replace measured_table2 (r.Runner.br_bench, r.Runner.br_system) r.Runner.br_seconds;
        Hashtbl.replace measured_util (r.Runner.br_bench, r.Runner.br_system) r.Runner.br_util;
        Printf.printf "  (table2: %s on %s done)\n%!" r.Runner.br_bench r.Runner.br_system)
      sw.Runner.sw_results;
    sweep_state := Some sw;
    record "kernels"
      (Json.List
         (List.map
            (fun (k : Runner.kernel_time) ->
              Json.Obj
                [
                  ("kernel", Json.Str k.Runner.kt_kernel);
                  ("system", Json.Str k.Runner.kt_system);
                  ("cycles", Json.Int k.Runner.kt_result.Sim.cycles);
                  ("seconds", Json.Float k.Runner.kt_result.Sim.seconds);
                ])
            sw.Runner.sw_kernels));
    record "benchmarks"
      (Json.List
         (List.map
            (fun (r : Runner.bench_result) ->
              Json.Obj
                [
                  ("bench", Json.Str r.Runner.br_bench);
                  ("system", Json.Str r.Runner.br_system);
                  ("seconds", Json.Float r.Runner.br_seconds);
                ])
            sw.Runner.sw_results))
  end

let table2 () =
  section_header "Table 2: execution time (measured simulation vs paper)";
  run_table2 ();
  let systems = [ "Cinnamon-M"; "Cinnamon-4"; "Cinnamon-8"; "Cinnamon-12" ] in
  let others = [ "CraterLake"; "CiFHER"; "ARK"; "CPU" ] in
  let t =
    T.create ~title:"Execution time"
      ~header:("Benchmark" :: (List.concat_map (fun s -> [ s ^ " sim"; s ^ " paper" ]) systems
                               @ others))
      ~aligns:(T.Left :: List.init ((2 * List.length systems) + List.length others) (fun _ -> T.Right)) ()
  in
  List.iter
    (fun (b : Specs.benchmark) ->
      let cells =
        List.concat_map
          (fun s ->
            let sim =
              match Hashtbl.find_opt measured_table2 (b.Specs.bench_name, s) with
              | Some v -> T.fmt_time v
              | None -> "-"
            in
            let paper =
              match List.assoc_opt s b.Specs.paper_times with
              | Some v -> T.fmt_time v
              | None -> "-"
            in
            [ sim; paper ])
          systems
      in
      let other_cells =
        List.map
          (fun s ->
            match List.assoc_opt s b.Specs.paper_times with
            | Some v -> T.fmt_time v
            | None -> "-")
          others
      in
      T.add_row t ((b.Specs.bench_name :: cells) @ other_cells))
    (bench_list ());
  T.print t;
  match Hashtbl.find_opt measured_table2 ("BERT", "Cinnamon-12") with
  | Some bert12 ->
    let cpu = List.assoc "CPU" Specs.bert.Specs.paper_times in
    Printf.printf
      "BERT Cinnamon-12 speedup over 48-core CPU: %.0fx measured-vs-paper-CPU (paper: %.0fx)\n"
      (cpu /. bert12) PD.bert_speedup_vs_cpu
  | None -> ()

let fig11 () =
  section_header "Fig. 11: speedup normalized to CraterLake (small) / Cinnamon-M (BERT)";
  run_table2 ();
  List.iter
    (fun (b : Specs.benchmark) ->
      let base_name, base =
        match List.assoc_opt "CraterLake" b.Specs.paper_times with
        | Some v -> ("CraterLake(paper)", v)
        | None -> ("Cinnamon-M(sim)", Hashtbl.find measured_table2 (b.Specs.bench_name, "Cinnamon-M"))
      in
      let entries =
        List.filter_map
          (fun s ->
            match Hashtbl.find_opt measured_table2 (b.Specs.bench_name, s) with
            | Some v -> Some (s, base /. v)
            | None -> None)
          [ "Cinnamon-M"; "Cinnamon-4"; "Cinnamon-8"; "Cinnamon-12" ]
      in
      T.print_bar_chart
        ~title:(Printf.sprintf "%s (speedup over %s)" b.Specs.bench_name base_name)
        ~unit:"x" entries)
    (bench_list ())

let fig12 () =
  section_header "Fig. 12: relative performance per dollar";
  run_table2 ();
  let open Cinnamon_arch in
  List.iter
    (fun (b : Specs.benchmark) ->
      let points =
        List.filter_map
          (fun (sys, accel) ->
            match Hashtbl.find_opt measured_table2 (b.Specs.bench_name, sys) with
            | Some seconds ->
              Some (Perf_dollar.point ~name:sys ~seconds ~cost:(Yield.system_cost accel))
            | None -> None)
          [
            ("Cinnamon-M", Yield.cinnamon_m);
            ("Cinnamon-4", Yield.cinnamon_n 4);
            ("Cinnamon-8", Yield.cinnamon_n 8);
            ("Cinnamon-12", Yield.cinnamon_n 12);
          ]
      in
      let paper_points =
        List.filter_map
          (fun (name, accel) ->
            match List.assoc_opt name b.Specs.paper_times with
            | Some seconds -> Some (Perf_dollar.point ~name ~seconds ~cost:(Yield.system_cost accel))
            | None -> None)
          [ ("CraterLake", Yield.craterlake); ("CiFHER", Yield.cifher); ("ARK", Yield.ark) ]
      in
      let all = points @ paper_points in
      match all with
      | [] -> ()
      | _ ->
        let baseline =
          if List.exists (fun (p : Perf_dollar.point) -> p.Perf_dollar.pd_name = "CraterLake") all
          then "CraterLake"
          else "Cinnamon-M"
        in
        let rel = Perf_dollar.relative ~baseline all in
        T.print_bar_chart
          ~title:(Printf.sprintf "%s (perf/$ relative to %s)" b.Specs.bench_name baseline)
          ~unit:"x" rel)
    (bench_list ())

let fig15 () =
  section_header "Fig. 15: hardware utilization";
  run_table2 ();
  let t =
    T.create ~title:"Utilization (time-weighted across segments)"
      ~header:[ "Config"; "Benchmark"; "Compute"; "Memory"; "Network" ]
      ~aligns:[ T.Left; T.Left; T.Right; T.Right; T.Right ] ()
  in
  let pct v = Printf.sprintf "%.0f%%" (100.0 *. v) in
  let avg4 f =
    let vals =
      List.filter_map
        (fun (b : Specs.benchmark) ->
          Option.map f (Hashtbl.find_opt measured_util (b.Specs.bench_name, "Cinnamon-4")))
        Specs.all
    in
    Cinnamon_util.Stats.mean vals
  in
  T.add_row t [ "Cinnamon-4"; "all (avg)"; pct (avg4 (fun u -> u.Sim.compute));
                pct (avg4 (fun u -> u.Sim.memory)); pct (avg4 (fun u -> u.Sim.network)) ];
  List.iter
    (fun sys ->
      match Hashtbl.find_opt measured_util ("BERT", sys) with
      | Some u ->
        T.add_row t [ sys; "BERT"; pct u.Sim.compute; pct u.Sim.memory; pct u.Sim.network ]
      | None -> ())
    [ "Cinnamon-8"; "Cinnamon-12" ];
  T.print t

(* ----------------------------------------------------------------- Fig. 6 *)

let fig6 () =
  section_header "Fig. 6: bootstrap scaling vs cache capacity and compute";
  let t =
    T.create ~title:"Parallel bootstraps on one chip (1 TB/s HBM)"
      ~header:[ "Bootstraps"; "64MB"; "256MB"; "1GB"; "1GB/8cl" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ] ()
  in
  let time ~parallel ~rf_mb ~clusters =
    let prog = Kernels.bootstrap_program ~parallel () in
    let cfg = CC.paper ~chips:1 ~rf_bytes:(rf_mb * 1024 * 1024) () in
    let r = Cinnamon_compiler.Pipeline.compile cfg prog in
    let sc = SC.fig6_chip ~rf_mb ~clusters in
    (Sim.run sc r.Cinnamon_compiler.Pipeline.machine).Sim.seconds
  in
  List.iter
    (fun parallel ->
      let row =
        string_of_int parallel
        :: List.map
             (fun (rf, cl) -> T.fmt_time (time ~parallel ~rf_mb:rf ~clusters:cl))
             [ (64, 4); (256, 4); (1024, 4); (1024, 8) ]
      in
      T.add_row t row;
      Printf.printf "  (fig6: %d bootstraps done)\n%!" parallel)
    [ 1; 2; 4; 8 ];
  T.print t;
  print_endline
    "Paper trends: small caches degrade linearly with bootstrap count; 1GB helps parallel\n\
     bootstraps ~5.6x at 8 bootstraps (shared evalkeys/plaintexts); extra clusters add ~1.6x."

(* ----------------------------------------------------------------- Fig. 13 *)

let fig13 () =
  section_header "Fig. 13: keyswitching techniques on Cinnamon-4, by link bandwidth";
  let seq =
    (Runner.simulate_kernel Runner.cinnamon_1 (Specs.K_bootstrap Kernels.boot_shape_13)).Sim.seconds
  in
  Printf.printf "Sequential (1 chip): %s\n%!" (T.fmt_time seq);
  let paper = CC.paper () in
  let variants =
    [
      ("CiFHER",
       { paper with CC.default_ks = Cinnamon_ir.Poly_ir.Cifher_broadcast;
         pass_mode = CC.No_pass });
      ("Input Broadcast",
       { paper with CC.default_ks = Cinnamon_ir.Poly_ir.Input_broadcast;
         pass_mode = CC.No_pass });
      ("Input Broadcast + Pass", { paper with CC.pass_mode = CC.Pass_ib_only });
      ("Cinnamon KS + Pass", paper);
      ("Cinnamon KS + Pass + ProgPar", { paper with CC.progpar = true });
    ]
  in
  let bandwidths = [ 256.0; 512.0; 1024.0 ] in
  let t =
    T.create ~title:"Speedup over Sequential (bootstrap)"
      ~header:(("Technique" :: List.map (fun b -> Printf.sprintf "%.0fGB/s" b) bandwidths)
               @ [ "paper@256" ])
      ~aligns:((T.Left :: List.map (fun _ -> T.Right) bandwidths) @ [ T.Right ]) ()
  in
  List.iter
    (fun (name, config) ->
      let compiled =
        Runner.compile_kernel ~config Runner.cinnamon_4 (Specs.K_bootstrap Kernels.boot_shape_13)
      in
      let speedups =
        List.map
          (fun bw ->
            let sc = SC.with_link_gbps SC.cinnamon_4 bw in
            let r = Sim.run sc compiled.Cinnamon_compiler.Pipeline.machine in
            seq /. r.Sim.seconds)
          bandwidths
      in
      let paper =
        match
          List.assoc_opt name
            [ ("CiFHER", 1.0 /. 2.14); ("Input Broadcast + Pass", 2.34);
              ("Cinnamon KS + Pass", 3.22); ("Cinnamon KS + Pass + ProgPar", 4.18) ]
        with
        | Some v -> T.fmt_ratio v
        | None -> "-"
      in
      T.add_row t ((name :: List.map T.fmt_ratio speedups) @ [ paper ]);
      Printf.printf "  (fig13: %s done)\n%!" name)
    variants;
  T.print t

(* ----------------------------------------------------------------- Fig. 14 *)

let fig14 () =
  section_header "Fig. 14: Bootstrap-13 vs Bootstrap-21 scaling";
  let seq shape =
    (Runner.simulate_kernel Runner.cinnamon_1 (Specs.K_bootstrap shape)).Sim.seconds
  in
  let t =
    T.create ~title:"Speedup over 1-chip sequential"
      ~header:[ "Config"; "Boot-13 sim"; "Boot-13 paper"; "Boot-21 sim"; "Boot-21 paper" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ] ()
  in
  List.iter
    (fun (chips, topology) ->
      let sc =
        { (SC.cinnamon_chip ~chips ~topology) with SC.name = Printf.sprintf "Cinnamon-%d" chips }
      in
      let sys = Runner.make_system ~name:sc.SC.name ~group_chips:chips ~groups:1 sc in
      let config = { (CC.paper ()) with CC.progpar = true } in
      let cell shape =
        let seq_t = seq shape in
        let r = Runner.simulate_kernel ~config sys (Specs.K_bootstrap shape) in
        seq_t /. r.Sim.seconds
      in
      let p13 = List.assoc sc.SC.name (List.assoc "Bootstrap-13" PD.fig14) in
      let p21 = List.assoc sc.SC.name (List.assoc "Bootstrap-21" PD.fig14) in
      T.add_row t
        [ sc.SC.name; T.fmt_ratio (cell Kernels.boot_shape_13); T.fmt_ratio p13;
          T.fmt_ratio (cell Kernels.boot_shape_21); T.fmt_ratio p21 ];
      Printf.printf "  (fig14: %d chips done)\n%!" chips)
    [ (4, SC.Ring); (8, SC.Ring); (12, SC.Switch) ];
  T.print t

(* ----------------------------------------------------------------- Fig. 16 *)

let fig16 () =
  section_header "Fig. 16: sensitivity to halving/doubling resources (bootstrap, Cinnamon-4)";
  let kernel = Specs.K_bootstrap Kernels.boot_shape_13 in
  let base_r = Runner.compile_kernel Runner.cinnamon_4 kernel in
  let base_t = (Sim.run SC.cinnamon_4 base_r.Cinnamon_compiler.Pipeline.machine).Sim.seconds in
  let t =
    T.create ~title:"Speedup vs baseline Cinnamon-4 (1.0 = baseline)"
      ~header:[ "Resource"; "0.5x"; "2x" ] ~aligns:[ T.Left; T.Right; T.Right ] ()
  in
  let sim_with sc machine = (Sim.run sc machine).Sim.seconds in
  let rf_time factor =
    let rf = int_of_float (Float.of_int SC.cinnamon_4.SC.rf_bytes *. factor) in
    let r =
      Cinnamon_compiler.Pipeline.compile
        (CC.paper ~chips:4 ~rf_bytes:rf ())
        (Specs.kernel_program kernel)
    in
    sim_with (SC.with_rf_bytes SC.cinnamon_4 rf) r.Cinnamon_compiler.Pipeline.machine
  in
  T.add_row t
    [ "Register file"; T.fmt_ratio (base_t /. rf_time 0.5); T.fmt_ratio (base_t /. rf_time 2.0) ];
  Printf.printf "  (fig16: rf done)\n%!";
  let vary name f =
    T.add_row t
      [ name;
        T.fmt_ratio (base_t /. sim_with (f 0.5) base_r.Cinnamon_compiler.Pipeline.machine);
        T.fmt_ratio (base_t /. sim_with (f 2.0) base_r.Cinnamon_compiler.Pipeline.machine) ]
  in
  vary "Link bandwidth" (fun k -> SC.with_link_gbps SC.cinnamon_4 (SC.cinnamon_4.SC.link_gbps *. k));
  vary "Memory bandwidth" (fun k -> SC.with_hbm_gbps SC.cinnamon_4 (SC.cinnamon_4.SC.hbm_gbps *. k));
  vary "Vector width" (fun k ->
      SC.with_lanes SC.cinnamon_4
        (int_of_float (Float.of_int SC.cinnamon_4.SC.lanes_per_cluster *. k)));
  T.print t;
  print_endline
    "Paper: halving any resource costs 20-40% (geomean 32%); doubling gains 2-20% (geomean 10%)."

(* ------------------------------------------------------- s4.3.1 and s7.4 *)

let sec43 () =
  section_header "s4.3.1: keyswitch pass communication reduction per bootstrap";
  let bytes config =
    let r =
      Runner.compile_kernel ~config Runner.cinnamon_4 (Specs.K_bootstrap Kernels.boot_shape_13)
    in
    r.Cinnamon_compiler.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved
  in
  let paper = CC.paper () in
  let unopt =
    bytes
      { paper with CC.default_ks = Cinnamon_ir.Poly_ir.Cifher_broadcast; pass_mode = CC.No_pass }
  in
  let pass = bytes paper in
  let pass_pp = bytes { paper with CC.progpar = true } in
  Printf.printf "Unoptimized (CiFHER-style, no pass): %s\n" (T.fmt_bytes unopt);
  Printf.printf "Cinnamon keyswitch pass:             %s  (%.2fx reduction; paper: %.1fx)\n"
    (T.fmt_bytes pass)
    (Float.of_int unopt /. Float.of_int pass)
    PD.keyswitch_pass_comm_reduction;
  Printf.printf "+ program parallelism:               %s  (%.2fx reduction; paper: %.2fx)\n"
    (T.fmt_bytes pass_pp)
    (Float.of_int unopt /. Float.of_int pass_pp)
    PD.keyswitch_pass_comm_reduction_with_progpar

let sec74 () =
  section_header "s7.4: Cinnamon vs CiFHER keyswitching (Cinnamon-4, bootstrap)";
  let compiled config =
    Runner.compile_kernel ~config Runner.cinnamon_4 (Specs.K_bootstrap Kernels.boot_shape_13)
  in
  let paper = CC.paper () in
  let cifher =
    compiled
      { paper with CC.default_ks = Cinnamon_ir.Poly_ir.Cifher_broadcast; pass_mode = CC.No_pass }
  in
  let cinn = compiled paper in
  let traffic r = r.Cinnamon_compiler.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved in
  let time r = (Sim.run SC.cinnamon_4 r.Cinnamon_compiler.Pipeline.machine).Sim.seconds in
  let tr_ratio = Float.of_int (traffic cifher) /. Float.of_int (traffic cinn) in
  let sp_ratio = time cifher /. time cinn in
  Printf.printf "Inter-chip traffic: CiFHER %s vs Cinnamon %s -> %.2fx less (paper: %.2fx)\n"
    (T.fmt_bytes (traffic cifher)) (T.fmt_bytes (traffic cinn)) tr_ratio
    PD.cinnamon_vs_cifher_traffic;
  Printf.printf "Speedup: %.2fx (paper: %.2fx; %.2fx with program parallelism)\n" sp_ratio
    PD.cinnamon_vs_cifher_speedup PD.cinnamon_vs_cifher_speedup_progpar

(* ------------------------------------------------------------- ablations *)

(* Design-choice ablations DESIGN.md calls out:
   - the compact BCU (s4.7): half the lanes of the other FUs, trading
     base-conversion throughput for area/power;
   - the keyswitching digit count dnum: fewer digits = fewer, larger
     base conversions but bigger evalkeys (memory traffic). *)
let ablation () =
  section_header "Ablations: compact BCU and digit count (bootstrap, Cinnamon-4)";
  let kernel = Specs.K_bootstrap Kernels.boot_shape_13 in
  let base_r = Runner.compile_kernel Runner.cinnamon_4 kernel in
  let t_of sc = (Sim.run sc base_r.Cinnamon_compiler.Pipeline.machine).Sim.seconds in
  (* BCU lanes: 128 (Cinnamon) vs 256 (CraterLake-style) *)
  let t_bcu_128 = t_of SC.cinnamon_4 in
  let t_bcu_256 =
    t_of { SC.cinnamon_4 with SC.bcu_lanes_per_cluster = 256; name = "Cinnamon-4/fullBCU" }
  in
  let area_128 = Lazy.force Cinnamon_arch.Area.cinnamon_chip in
  let area_256 =
    Cinnamon_arch.Area.area_of
      { Cinnamon_arch.Area.cinnamon_chip_config with Cinnamon_arch.Area.bcu_lanes = 256 }
  in
  Printf.printf
    "BCU lanes 128 -> 256: time %s -> %s (%.1f%% faster), chip area %.2f -> %.2f mm^2 (+%.1f%%)
"
    (T.fmt_time t_bcu_128) (T.fmt_time t_bcu_256)
    (100.0 *. (1.0 -. (t_bcu_256 /. t_bcu_128)))
    area_128.Cinnamon_arch.Area.total_mm2 area_256.Cinnamon_arch.Area.total_mm2
    (100.0
    *. ((area_256.Cinnamon_arch.Area.total_mm2 /. area_128.Cinnamon_arch.Area.total_mm2) -. 1.0));
  Printf.printf
    "  (paper s4.7: halving the BCU trades some throughput for half its logic area/power)
";
  (* dnum: 2 / 3 / 4 digits *)
  let t = T.create ~title:"Digit-count ablation" ~header:[ "dnum"; "alpha"; "Time"; "Comm" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right ] () in
  List.iter
    (fun dnum ->
      let alpha = Cinnamon_util.Bitops.cdiv 52 dnum in
      let cfg = { (CC.paper ~chips:4 ()) with CC.dnum; alpha } in
      let r = Cinnamon_compiler.Pipeline.compile cfg (Specs.kernel_program kernel) in
      let res = Sim.run SC.cinnamon_4 r.Cinnamon_compiler.Pipeline.machine in
      T.add_row t
        [ string_of_int dnum; string_of_int alpha; T.fmt_time res.Sim.seconds;
          T.fmt_bytes r.Cinnamon_compiler.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved ];
      Printf.printf "  (ablation: dnum=%d done)
%!" dnum)
    [ 2; 3; 4 ];
  T.print t

(* ------------------------------------------------- workload characterization *)

(* The paper's motivation data (§3): wider models need more ciphertexts,
   deeper models more bootstraps.  Characterize each benchmark's kernels
   as compiled. *)
let characterize () =
  section_header "Workload characterization (compiled kernels, Cinnamon-4)";
  let t =
    T.create ~title:"Kernel statistics"
      ~header:[ "Kernel"; "Ct ops"; "Keyswitches"; "Ct-muls"; "Rotations"; "Pt-muls"; "ISA instrs"; "Comm" ]
      ~aligns:(T.Left :: List.init 7 (fun _ -> T.Right)) ()
  in
  List.iter
    (fun k ->
      let prog = Specs.kernel_program k in
      let c = Cinnamon_ir.Ct_ir.count_ops prog in
      let r = Runner.compile_kernel Runner.cinnamon_4 k in
      let instrs =
        Array.fold_left
          (fun a p -> a + Array.length p.Cinnamon_isa.Isa.instrs)
          0 r.Cinnamon_compiler.Pipeline.machine.Cinnamon_isa.Isa.programs
      in
      T.add_row t
        [ Specs.kernel_name k; string_of_int (Cinnamon_ir.Ct_ir.size prog);
          string_of_int (Cinnamon_ir.Ct_ir.keyswitch_count prog);
          string_of_int c.Cinnamon_ir.Ct_ir.n_mul_ct; string_of_int c.Cinnamon_ir.Ct_ir.n_rotate;
          string_of_int c.Cinnamon_ir.Ct_ir.n_mul_plain; string_of_int instrs;
          T.fmt_bytes r.Cinnamon_compiler.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved ];
      Printf.printf "  (characterize: %s done)\n%!" (Specs.kernel_name k))
    (List.map snd Specs.kernels);
  T.print t;
  (* the paper's §3.1 data points *)
  Printf.printf
    "Paper motivation: BERT needs 3 cts per 128-token tensor and ~1,400 bootstraps;\n\
     ResNet-20 fits one ct and ~50 bootstraps (reproduced in Specs and its tests).\n"

(* ----------------------------------------------------------------- energy *)

(* Benchmark energy from the power model (the paper reports 190 W per
   chip from synthesis; our budget reproduces that peak and splits it
   across datapath, HBM, links and static draw). *)
let energy () =
  section_header "Energy: per-benchmark energy on Cinnamon-4 (power model)";
  let open Cinnamon_arch in
  Printf.printf "modeled peak chip power: %.0f W (paper: 190 W)\n"
    (Power.peak_watts Power.cinnamon_chip ~hbm_gbps:2048.0 ~link_gbps:256.0);
  let t =
    T.create ~title:"Bootstrap energy by configuration"
      ~header:[ "Config"; "Time"; "Energy"; "Avg W/chip"; "Compute J"; "HBM J"; "Link J"; "Static J" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ] ()
  in
  List.iter
    (fun (sys, sc) ->
      let r = Runner.simulate_kernel sys (Specs.K_bootstrap Kernels.boot_shape_13) in
      let e = Power.of_simulation Power.cinnamon_chip sc r in
      let part name = List.assoc name e.Power.breakdown in
      T.add_row t
        [ sys.Runner.sys_name; T.fmt_time r.Sim.seconds;
          Printf.sprintf "%.3f J" e.Power.joules; Printf.sprintf "%.0f" e.Power.avg_watts;
          Printf.sprintf "%.3f" (part "compute"); Printf.sprintf "%.3f" (part "hbm");
          Printf.sprintf "%.3f" (part "links"); Printf.sprintf "%.3f" (part "static") ])
    [ (Runner.cinnamon_1, SC.cinnamon_1); (Runner.cinnamon_4, SC.cinnamon_4) ];
  T.print t

(* ---------------------------------------------- graph front-end (lib/nn) *)

(* The packing optimizer against naive column packing, per graph
   workload: the rotations/keyswitches of the lowered planned and
   naive-column programs, compile (plan+lower) time, and simulated
   Cinnamon-4 cycles.  The bert-encoder advantage is a
   hard gate — the section fails if the cost model stops beating the
   naive baseline there. *)
let nn () =
  section_header "Graph front-end: packing optimizer vs naive column packing (Cinnamon-4)";
  let open Cinnamon_nn in
  let module Ct_ir = Cinnamon_ir.Ct_ir in
  let t =
    T.create ~title:"Graph workloads"
      ~header:[ "Workload"; "Compile"; "Rotations"; "Keyswitches"; "Naive rot"; "Cycles" ]
      ~aligns:(T.Left :: List.init 5 (fun _ -> T.Right)) ()
  in
  let entries =
    List.map
      (fun (name, k) ->
        let g = match k with Specs.K_graph g -> g | _ -> assert false in
        let t0 = Unix.gettimeofday () in
        let prog = Lower.lower ~plan:(Plan.make g) g in
        let compile_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
        let rotations = (Ct_ir.count_ops prog).Ct_ir.n_rotate in
        let keyswitches = Ct_ir.keyswitch_count prog in
        let naive =
          match Plan.make ~policy:Plan.Naive_column g with
          | p -> Some (Ct_ir.count_ops (Lower.lower ~plan:p g)).Ct_ir.n_rotate
          | exception Invalid_argument _ -> None (* non-pow2 layer: column illegal *)
        in
        let res = Runner.simulate_kernel Runner.cinnamon_4 k in
        (match (name, naive) with
        | "bert-encoder", Some n when rotations >= n ->
          failwith
            (Printf.sprintf
               "nn section: planner no longer beats naive column packing on %s (%d >= %d rotations)"
               name rotations n)
        | "bert-encoder", None -> failwith "nn section: bert-encoder lost its naive baseline"
        | _ -> ());
        T.add_row t
          [ name; Printf.sprintf "%.1f ms" compile_ms;
            string_of_int rotations;
            string_of_int keyswitches;
            (match naive with Some n -> string_of_int n | None -> "-");
            string_of_int res.Sim.cycles ];
        Json.Obj
          ([
             ("workload", Json.Str name);
             ("compile_ms", Json.Float compile_ms);
             ("rotations_planned", Json.Int rotations);
             ("keyswitches_planned", Json.Int keyswitches);
             ("cycles", Json.Int res.Sim.cycles);
           ]
          @
          match naive with Some n -> [ ("rotations_naive_column", Json.Int n) ] | None -> []))
      Specs.graph_kernels
  in
  T.print t;
  record "nn_frontend" (Json.List entries)

(* ------------------------------------------------- kernel microbenchmarks *)

(* The RNS/NTT kernel layer, timed at paper-class parameter points and
   recorded into BENCH_cinnamon.json (kernel_microbench section) so
   per-kernel throughput has a trajectory across commits.  Full mode
   runs the paper's N = 2^16 ring; --quick drops to N = 2^12 for CI.

   The automorphism entry also checks the Eval-domain permutation
   against the Coeff-domain oracle and FAILS the run on any mismatch —
   CI treats microbench errors as job failures. *)

(* Effective memory bandwidth of one op: bytes streamed / wall time. *)
let gbps_of ~bytes us = if bytes = 0 || us <= 0.0 then 0.0 else Float.of_int bytes /. us /. 1000.0

let kernels () =
  section_header
    (Printf.sprintf "Kernel microbenchmarks: RNS/NTT kernel layer (N=%s)"
       (if !quick then "2^12, quick" else "2^16, paper-class"));
  let open Cinnamon_rns in
  let time_it ?(reps = 10) f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. Float.of_int reps
  in
  (* kernel_microbench entries, newest first *)
  let entries = ref [] in
  let record_micro ?(bytes = 0) ~kernel ~n ~limbs us =
    let gbps = if bytes = 0 then [] else [ ("gbps", Json.Float (gbps_of ~bytes us)) ] in
    entries :=
      Json.Obj
        ([
           ("kernel", Json.Str kernel);
           ("n", Json.Int n);
           ("limbs", Json.Int limbs);
           ("us_per_op", Json.Float us);
         ]
        @ gbps)
      :: !entries;
    let bw = if bytes = 0 then "" else Printf.sprintf "  %6.2f GB/s" (gbps_of ~bytes us) in
    Printf.printf "  %-34s %12.2f us/op%s  (N=2^%d, limbs=%d)\n%!" kernel us bw
      (Cinnamon_util.Bitops.log2_exact n)
      limbs
  in
  let n = if !quick then 1 lsl 12 else 1 lsl 16 in
  let limbs = if !quick then 3 else 6 in
  let reps = if !quick then 20 else 4 in
  let qs = Prime_gen.gen_primes ~bits:28 ~n ~count:limbs () in
  let basis = Basis.of_primes qs in
  let rng = Cinnamon_util.Rng.create ~seed:7 in
  (* single-limb NTT passes, into a reused scratch buffer *)
  let q = List.hd qs in
  let plan = Ntt.plan ~q ~n in
  let a = Limb_buf.init n (fun _ -> Cinnamon_util.Rng.int rng q) in
  let scratch = Limb_buf.create n in
  let log2n = Cinnamon_util.Bitops.log2_exact n in
  (* per stage: n limb reads + n limb writes, log2(n) stages *)
  let ntt_bytes = 16 * n * log2n in
  let ntt_s = time_it ~reps:(reps * 8) (fun () -> Ntt.forward_into plan ~src:a ~dst:scratch) in
  record_micro ~kernel:"ntt_forward" ~n ~limbs:1 ~bytes:ntt_bytes (1e6 *. ntt_s);
  record_micro ~kernel:"ntt_inverse" ~n ~limbs:1 ~bytes:ntt_bytes
    (1e6 *. time_it ~reps:(reps * 8) (fun () -> Ntt.inverse_into plan ~src:a ~dst:scratch));
  (* the same transforms at a 30-bit prime, which keep every value
     < 2q instead of the 4q-lazy forward: the path of every keyswitch's
     special primes *)
  let q30 = List.hd (Prime_gen.gen_primes ~bits:30 ~n ~count:1 ()) in
  let plan30 = Ntt.plan ~q:q30 ~n in
  let a30 = Limb_buf.init n (fun _ -> Cinnamon_util.Rng.int rng q30) in
  record_micro ~kernel:"ntt_forward_q30" ~n ~limbs:1 ~bytes:ntt_bytes
    (1e6 *. time_it ~reps:(reps * 8) (fun () -> Ntt.forward_into plan30 ~src:a30 ~dst:scratch));
  record_micro ~kernel:"ntt_inverse_q30" ~n ~limbs:1 ~bytes:ntt_bytes
    (1e6 *. time_it ~reps:(reps * 8) (fun () -> Ntt.inverse_into plan30 ~src:a30 ~dst:scratch));
  (* CPU-column calibration: Cpu_model extrapolates from the
     single-core forward NTT just recorded *)
  let boot =
    Cinnamon_sim.Cpu_model.extrapolate_from_measured ~seconds_per_ntt:ntt_s ~n_meas:n ~cores:48
  in
  Printf.printf
    "Extrapolated 48-core CPU bootstrap (from measured OCaml NTT): %s (paper-reported: 33 s)\n"
    (T.fmt_time boot);
  Printf.printf "Analytic 48-core CPU bootstrap: %s\n%!"
    (T.fmt_time Cinnamon_sim.Cpu_model.analytic_bootstrap_seconds);
  (* full-width pointwise product, into a preallocated destination *)
  let x = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
  let y = Rns_poly.random ~n ~basis ~domain:Rns_poly.Eval rng in
  let z = Rns_poly.zero ~n ~basis in
  record_micro ~kernel:"pointwise_mul_into" ~n ~limbs ~bytes:(3 * 8 * limbs * n)
    (1e6 *. time_it ~reps (fun () -> Rns_poly.mul_into ~dst:z x y));
  (* base conversion into a 3-limb special basis (the keyswitch mod-up
     shape: every source limb feeds every destination limb) *)
  let ext = Basis.of_primes (Prime_gen.gen_primes ~bits:30 ~n ~count:3 ~avoid:qs ()) in
  let ext_limbs = Basis.size ext in
  let xc = Rns_poly.to_coeff x in
  (* stage 1 streams l limbs in+out; stage 2 reads all l scaled limbs
     per output column and writes m columns *)
  let bc_bytes = 8 * ((2 * limbs * n) + (ext_limbs * limbs * n) + (ext_limbs * n)) in
  record_micro ~kernel:"base_conv" ~n ~limbs ~bytes:bc_bytes
    (1e6 *. time_it ~reps (fun () -> ignore (Base_conv.convert xc ~dst:ext)));
  (* automorphism: Eval-domain permutation vs the INTT/NTT round-trip
     the seed performed (kept here as the oracle path) *)
  let k = Cinnamon_ckks.Keys.galois_of_rotation ~n 1 in
  let oracle () = Rns_poly.to_eval (Rns_poly.automorphism (Rns_poly.to_coeff x) ~k) in
  let eval_us = 1e6 *. time_it ~reps (fun () -> Rns_poly.automorphism x ~k) in
  let coeff_us = 1e6 *. time_it ~reps oracle in
  record_micro ~kernel:"automorphism_eval" ~n ~limbs ~bytes:(2 * 8 * limbs * n) eval_us;
  record_micro ~kernel:"automorphism_coeff_roundtrip" ~n ~limbs coeff_us;
  record_micro ~kernel:"automorphism_speedup_x" ~n ~limbs (coeff_us /. eval_us);
  Printf.printf "  automorphism Eval-path speedup: %.1fx over the INTT/NTT round-trip\n%!"
    (coeff_us /. eval_us);
  if not (Rns_poly.equal (Rns_poly.automorphism x ~k) (oracle ())) then
    failwith "kernel microbench: Eval-domain automorphism diverged from the Coeff oracle";
  (* keyswitch: the fused streaming engine (Keyswitch_fused) against
     the sequential oracle it must match bitwise — the run FAILS on any
     divergence, so this doubles as an end-to-end numeric gate.  The
     Params.small entry keeps the historical name and shape
     ("keyswitch", N=1024, limbs=9) for check_kernels and the
     cross-commit trajectory; a second entry exercises the sweep ring
     (N=2^12 quick / N=2^16 full) at a registered parameter point. *)
  let bench_keyswitch tag params =
    let open Cinnamon_ckks in
    let nn = params.Params.n in
    let krng = Cinnamon_util.Rng.create ~seed:8 in
    let sk = Keys.gen_secret_key params krng in
    let relin = Keys.gen_relin_key params sk krng in
    let c = Rns_poly.random ~n:nn ~basis:params.Params.q_basis ~domain:Rns_poly.Eval krng in
    let k0f, k1f = Keyswitch_fused.keyswitch params relin c in
    let k0o, k1o = Cinnamon_oracle.Keyswitch.keyswitch params relin c in
    if not (Rns_poly.equal k0f k0o && Rns_poly.equal k1f k1o) then
      failwith "kernel microbench: fused keyswitch diverged from the sequential oracle";
    let tq = Basis.size params.Params.q_basis in
    let alpha = params.Params.alpha and dnum = params.Params.dnum in
    let t = tq + alpha in
    (* coarse streamed-words model of the fused dataflow: decompose
       (tq limbs in+out), conversion columns ((dnum*t - tq) columns,
       each reading ~alpha scaled limbs), the MAC streams (per target
       limb: dnum ext + 2*dnum key reads + 2 accumulator writes), and
       the fused mod-down (2 accumulators) *)
    let words =
      (2 * tq)
      + (((dnum * t) - tq) * (alpha + 1))
      + (t * ((3 * dnum) + 2))
      + (2 * ((2 * alpha) + (tq * (alpha + 3))))
    in
    let ks_reps = if nn >= 65536 then 3 else 5 in
    let fused_us =
      1e6 *. time_it ~reps:ks_reps (fun () -> Keyswitch_fused.keyswitch params relin c)
    in
    let oracle_us =
      1e6 *. time_it ~reps:ks_reps (fun () -> Cinnamon_oracle.Keyswitch.keyswitch params relin c)
    in
    record_micro ~kernel:tag ~n:nn ~limbs:tq ~bytes:(8 * nn * words) fused_us;
    record_micro ~kernel:(tag ^ "_oracle") ~n:nn ~limbs:tq oracle_us;
    record_micro ~kernel:(tag ^ "_speedup_x") ~n:nn ~limbs:tq (oracle_us /. fused_us)
  in
  bench_keyswitch "keyswitch" (Lazy.force Cinnamon_ckks.Params.small);
  bench_keyswitch "keyswitch"
    (Lazy.force (if !quick then Cinnamon_ckks.Params.medium else Cinnamon_ckks.Params.large));
  (* output aggregation at 4 chips (Params.small: 9 limbs, so the
     widest chip share is 3 = alpha): Keyswitch_alg.run, as the
     functional emulator calls it (one shared mod-down), against the
     per-chip whole-polynomial reference — the run FAILS on any
     divergence *)
  let open Cinnamon_ckks in
  let oparams = Lazy.force Params.small in
  let orng = Cinnamon_util.Rng.create ~seed:10 in
  let osk = Keys.gen_secret_key oparams orng in
  let os = Keys.sk_over osk (Params.qp_basis oparams) in
  let rr =
    Cinnamon_compiler.Keyswitch_alg.gen_round_robin_key oparams osk ~s_from:(Rns_poly.mul os os)
      ~chips:4 orng
  in
  let on = oparams.Params.n in
  let oc = Rns_poly.random ~n:on ~basis:oparams.Params.q_basis ~domain:Rns_poly.Eval orng in
  let oa_fused () =
    Cinnamon_compiler.Keyswitch_alg.(
      run oparams ~algorithm:Cinnamon_ir.Poly_ir.Output_aggregation ~chips:4
        ~key:(Round_robin rr) oc (new_counter ()))
  in
  let oa_ref () = Cinnamon_oracle.Keyswitch_alg_ref.output_aggregation oparams rr oc ~chips:4 in
  let (f0, f1), (r0, r1) = (oa_fused (), oa_ref ()) in
  if not (Rns_poly.equal f0 r0 && Rns_poly.equal f1 r1) then
    failwith "kernel microbench: fused output aggregation diverged from the per-chip reference";
  let olimbs = Basis.size oparams.Params.q_basis in
  let oa_us = 1e6 *. time_it ~reps:5 oa_fused in
  let oa_ref_us = 1e6 *. time_it ~reps:5 oa_ref in
  record_micro ~kernel:"keyswitch_output_agg4" ~n:on ~limbs:olimbs oa_us;
  record_micro ~kernel:"keyswitch_output_agg4_oracle" ~n:on ~limbs:olimbs oa_ref_us;
  record_micro ~kernel:"keyswitch_output_agg4_speedup_x" ~n:on ~limbs:olimbs (oa_ref_us /. oa_us);
  (* hoisted rotations: k rotations from ONE shared decomposition
     (Halevi-Shoup through the fused engine: per rotation a permuted
     MAC + mod-down) vs k independent Eval.rotate keyswitches *)
  let hparams = Lazy.force Params.small in
  let hrng = Cinnamon_util.Rng.create ~seed:9 in
  let hsk = Keys.gen_secret_key hparams hrng in
  let rots = [ 1; 2; 3; 4 ] in
  let hek = Keys.provision hparams hsk ~rotations:rots ~conjugation:false hrng in
  let hn = hparams.Params.n in
  let hct =
    Ciphertext.make
      ~c0:(Rns_poly.random ~n:hn ~basis:hparams.Params.q_basis ~domain:Rns_poly.Eval hrng)
      ~c1:(Rns_poly.random ~n:hn ~basis:hparams.Params.q_basis ~domain:Rns_poly.Eval hrng)
      ~scale:hparams.Params.scale ~slots:hparams.Params.slots
  in
  let hctx = Eval.context hparams hek in
  let nrot = List.length rots in
  let hoisted_us =
    1e6 *. time_it ~reps:5 (fun () -> ignore (Eval.rotate_many hctx hct rots))
  in
  let plain_us =
    1e6 *. time_it ~reps:5 (fun () -> List.iter (fun r -> ignore (Eval.rotate hctx hct r)) rots)
  in
  record_micro ~kernel:"hoisted_rotate4" ~n:hn ~limbs:(Basis.size hparams.Params.q_basis)
    hoisted_us;
  record_micro ~kernel:"rotate4_unhoisted" ~n:hn ~limbs:(Basis.size hparams.Params.q_basis)
    plain_us;
  record_micro ~kernel:"hoisted_speedup_x" ~n:hn ~limbs:(Basis.size hparams.Params.q_basis)
    (plain_us /. hoisted_us);
  Printf.printf "  hoisted: %d rotations in %.0f us vs %.0f us unhoisted (%.2fx)\n%!" nrot
    hoisted_us plain_us (plain_us /. hoisted_us);
  record "kernel_microbench" (Json.List (List.rev !entries))

(* --------------------------------------------------------------- dispatch *)

let sections =
  [
    ("table1", table1); ("table3", table3); ("table2", table2); ("fig6", fig6);
    ("fig11", fig11); ("fig12", fig12); ("fig13", fig13); ("fig14", fig14);
    ("fig15", fig15); ("fig16", fig16); ("sec43", sec43); ("sec74", sec74);
    ("ablation", ablation); ("characterize", characterize); ("energy", energy);
    ("kernels", kernels); ("nn", nn);
  ]

let () =
  let t0 = Unix.gettimeofday () in
  let split_eq flag s =
    (* "--flag=value" -> Some value *)
    let p = flag ^ "=" in
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let bad_arg s =
    Printf.eprintf "bad argument %s\n" s;
    exit 2
  in
  let set_jobs arg n =
    match int_of_string_opt n with Some n when n >= 0 -> jobs := n | _ -> bad_arg arg
  in
  let rec parse_args acc trace metrics = function
    | [] -> (List.rev acc, trace, metrics)
    | "--metrics" :: rest -> parse_args acc trace true rest
    | "--quick" :: rest ->
      quick := true;
      parse_args acc trace metrics rest
    | "--jobs" :: n :: rest ->
      set_jobs ("--jobs " ^ n) n;
      parse_args acc trace metrics rest
    | "--cache-dir" :: dir :: rest ->
      Exec.Result_cache.set_dir (Some dir);
      parse_args acc trace metrics rest
    | "--bench-out" :: file :: rest ->
      bench_out := file;
      parse_args acc trace metrics rest
    | "--trace" :: file :: rest -> parse_args acc (Some file) metrics rest
    | s :: rest when split_eq "--trace" s <> None ->
      parse_args acc (split_eq "--trace" s) metrics rest
    | s :: rest when split_eq "--jobs" s <> None ->
      set_jobs s (Option.get (split_eq "--jobs" s));
      parse_args acc trace metrics rest
    | s :: rest when split_eq "--cache-dir" s <> None ->
      Exec.Result_cache.set_dir (split_eq "--cache-dir" s);
      parse_args acc trace metrics rest
    | s :: rest when split_eq "--bench-out" s <> None ->
      bench_out := Option.get (split_eq "--bench-out" s);
      parse_args acc trace metrics rest
    | s :: rest -> parse_args (s :: acc) trace metrics rest
  in
  let requested, trace, metrics = parse_args [] None false (List.tl (Array.to_list Sys.argv)) in
  if !jobs = 0 then jobs := Exec.Pool.default_jobs ();
  let requested =
    if requested = [] && !quick then [ "table2"; "kernels"; "nn" ] else requested
  in
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section(s): %s\nknown sections: %s\n" (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 2);
  if trace <> None || metrics then Tel.enable ();
  let to_run =
    if requested = [] then sections
    else List.map (fun name -> (name, List.assoc name sections)) requested
  in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      Tel.Span.with_ ~cat:"bench" ("section:" ^ name) f;
      Printf.printf "[%s finished in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    to_run;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  Printf.printf "\nAll sections done in %.1fs\n" wall_seconds;
  (* the header describes the run that last recorded; a run that
     recorded nothing leaves the artifact untouched *)
  if !recorded <> [] then begin
    let merged = !recorded in
    let st = Exec.Result_cache.stats () in
    let hits = st.Exec.Result_cache.hits + st.Exec.Result_cache.disk_hits in
    let lookups = hits + st.Exec.Result_cache.misses in
    let hit_rate = if lookups = 0 then 0.0 else Float.of_int hits /. Float.of_int lookups in
    (* each merge puts its key first, so merge the header back to front *)
    List.iter
      (fun (key, json) -> record key json)
      (List.rev
         [
           ("generated_by", Json.Str "bench/main");
           ("jobs", Json.Int !jobs);
           ("quick", Json.Bool !quick);
           ("wall_seconds", Json.Float wall_seconds);
           ( "cache",
             Json.Obj
               [
                 ("hits", Json.Int st.Exec.Result_cache.hits);
                 ("disk_hits", Json.Int st.Exec.Result_cache.disk_hits);
                 ("misses", Json.Int st.Exec.Result_cache.misses);
                 ("stores", Json.Int st.Exec.Result_cache.stores);
                 ("hit_rate", Json.Float hit_rate);
               ] );
         ]);
    if !bench_out <> "-" then
      Printf.printf "bench: merged %s into %s (%.0f%% cache hit rate)\n%!"
        (String.concat ", " merged) !bench_out (100.0 *. hit_rate)
  end;
  (match trace with
  | Some file -> (
    try
      Tel.write_chrome_trace file;
      Printf.printf "trace: wrote %d events to %s\n" (Tel.event_count ()) file
    with Sys_error msg -> Printf.eprintf "error: cannot write trace file: %s\n" msg)
  | None -> ());
  if metrics then begin
    print_newline ();
    print_string (Tel.report ())
  end
