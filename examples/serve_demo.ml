(* The encrypted-inference serving layer on one page: offer a burst of
   bootstrap requests to the admission queue, let the dynamic batcher
   pack compatible requests (same benchmark, system and compile
   config) so one compile serves the whole batch, and read the SLO
   report — latency percentiles, goodput, shed rate — plus the
   compile-amortization evidence from the result cache.  The server is
   a fleet of one node with one tenant: the same loop and tenancy
   model the multi-node fleet runs.

   Run with:  dune exec examples/serve_demo.exe *)

module Loadtest = Cinnamon_fleet.Loadtest
module Slo = Cinnamon_serve.Slo

let () =
  (* Open loop: Poisson arrivals at 4x the server's service capacity —
     deliberately overloaded so queueing, batching and deadline
     shedding all show up in a few seconds of wall clock. *)
  let open_cfg = { Loadtest.quick with Loadtest.lg_requests = 60; lg_jobs = 2 } in
  print_endline "=== open loop (Poisson, 4x overload) ===";
  let r = Loadtest.run open_cfg in
  Loadtest.print_result r;
  let rp = r.Loadtest.lr_report in
  Printf.printf "amortization: %d compiles served %d admitted requests (%d cache hits)\n\n"
    rp.Slo.rp_compiles rp.Slo.rp_admitted rp.Slo.rp_cache_hits;
  assert (rp.Slo.rp_compiles < rp.Slo.rp_admitted);

  (* Closed loop: 6 clients that each wait half a service time between
     a response and their next request — a self-throttling load that
     completes everything it offers. *)
  let closed_cfg =
    {
      open_cfg with
      Loadtest.lg_mode = Loadtest.Closed_loop { clients = 6; think_factor = 0.5 };
      lg_requests = 30;
    }
  in
  print_endline "=== closed loop (6 clients, 0.5x think) ===";
  let r = Loadtest.run closed_cfg in
  Loadtest.print_result r;
  print_endline "OK"
