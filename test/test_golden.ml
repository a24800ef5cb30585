(* Golden-diff pins for the serving benches.

   The quick-preset JSON of the single-node load test (open loop, and a
   16-client closed loop that provokes queue-full rejections), the
   fleet sweep and the multi-tenant bench is checked in under
   [golden/].  Each case replays its preset at pool widths 1 and 2 and
   compares the rendered document byte for byte, so any refactor of the
   serving loop, the tenancy model or the bench plumbing that moves a
   single float shows up here.

   The result cache is shared across the whole test binary.  The
   load-test report counts the compiles and cache hits of its own
   calibration, so every case first warms the cache with its classes:
   the documents then describe a warm cache whatever ran before.  The
   fleet and tenant documents echo the configured pool width; they are
   rendered with the preset's own [jobs] value. *)

module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Loadgen = Cinnamon_serve.Loadgen
module Loadtest = Cinnamon_fleet.Loadtest
module Fb = Cinnamon_fleet.Fleet_bench
module Tb = Cinnamon_fleet.Tenant_bench

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let warm mix =
  let pool = Exec.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  ignore (Loadgen.calibrate ~pool ~compile:Loadtest.quick.Loadtest.lg_compile mix)

let check_golden name ~mix render =
  warm mix;
  let want = read_file (Filename.concat "golden" name) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s at --jobs %d" name jobs)
        want
        (Json.to_string (render jobs) ^ "\n"))
    [ 1; 2 ]

let test_loadtest_open () =
  check_golden "serve_loadtest_open.json" ~mix:Loadtest.quick.Loadtest.lg_mix (fun jobs ->
      Loadtest.result_json (Loadtest.run { Loadtest.quick with Loadtest.lg_jobs = jobs }))

let test_loadtest_closed () =
  check_golden "serve_loadtest_closed16.json" ~mix:Loadtest.quick.Loadtest.lg_mix (fun jobs ->
      Loadtest.result_json
        (Loadtest.run
           {
             Loadtest.quick with
             Loadtest.lg_mode = Loadtest.Closed_loop { clients = 16; think_factor = 0.1 };
             lg_jobs = jobs;
           }))

let test_fleet_bench () =
  check_golden "serve_fleet.json" ~mix:Fb.quick.Fb.fb_mix (fun jobs ->
      let r = Fb.run { Fb.quick with Fb.fb_jobs = jobs } in
      Fb.result_json { r with Fb.fbr_jobs = Fb.quick.Fb.fb_jobs })

let test_tenant_bench () =
  let transcipher =
    { Loadgen.cls_bench = "transcipher"; cls_system = "cinnamon-4"; cls_weight = 1.0 }
  in
  check_golden "tenant_serving.json" ~mix:(Tb.quick.Tb.tb_mix @ [ transcipher ]) (fun jobs ->
      let r = Tb.run { Tb.quick with Tb.tb_jobs = jobs } in
      Tb.result_json { r with Tb.tbr_jobs = Tb.quick.Tb.tb_jobs })

let suite =
  ( "golden",
    [
      Alcotest.test_case "serve_loadtest open loop" `Quick test_loadtest_open;
      Alcotest.test_case "serve_loadtest closed loop, 16 clients" `Quick test_loadtest_closed;
      Alcotest.test_case "serve_fleet quick" `Quick test_fleet_bench;
      Alcotest.test_case "tenant_serving quick" `Quick test_tenant_bench;
    ] )
