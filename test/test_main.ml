(* Cinnamon test runner: one alcotest binary over all suites. *)

let () =
  Alcotest.run "cinnamon"
    [
      Test_util.suite;
      Test_rns.suite;
      Test_kernels.suite;
      Test_ckks.suite;
      Test_bootstrap.suite;
      Test_ir.suite;
      Test_compiler.suite;
      Test_keyswitch_alg.suite;
      Test_keyswitch_fused.suite;
      Test_emulator.suite;
      Test_sim.suite;
      Test_arch.suite;
      Test_workloads.suite;
      Test_nn.suite;
      Test_exec.suite;
      Test_serve.suite;
      Test_fleet.suite;
      Test_tenant.suite;
      Test_golden.suite;
      Test_telemetry.suite;
      Test_regressions.suite;
      Test_verify.suite;
      Test_extensions.suite;
      Test_properties.suite;
    ]
