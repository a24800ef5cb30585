(* Numeric kernel-performance regression gate.

   Reads BENCH_cinnamon.json (as produced by [bench/main.exe -- kernels])
   and fails — exit code 1 — if a budgeted microbenchmark is slower
   than its checked-in (kernel, N) budget.  The budgets are
   deliberately generous (4-5x headroom over measured steady-state on
   the reference machine) so the gate trips on structural regressions
   (boxing in a hot loop, lost inlining, accidental copies, a fusion
   falling back to the naive dataflow), not on shared-runner noise.

   The gate requires at least one [ntt_forward] and one [keyswitch]
   entry to match a budget — a silently missing headline kernel is
   itself a failure.

   Usage: check_kernels [BENCH_cinnamon.json] *)

module Json = Cinnamon_util.Json

(* us/op budgets keyed by (kernel, N).  Reference steady-state on the
   dev machine:
     ntt_forward          N=2^12 ~86us,   N=2^16 ~1800us
     ntt_inverse          N=2^12 ~82us
     ntt_*_q30            N=2^12: the 30-bit (< 2q) path, budgeted as the 28-bit one
     pointwise_mul_into   N=2^12 ~50us,   N=2^16 ~1670us   (3 / 6 limbs)
     keyswitch (fused)    N=2^10 ~2200us, N=2^12 ~18.4ms, N=2^16 ~302ms
   The N=2^10 keyswitch budget is the PR acceptance bound (>=5x over
   the 56170us pre-fusion baseline); the rest carry ~4x headroom. *)
let budgets =
  [
    (("ntt_forward", 4096), 400.0);
    (("ntt_forward", 65536), 3465.0);
    (("ntt_inverse", 4096), 400.0);
    (("ntt_forward_q30", 4096), 400.0);
    (("ntt_inverse_q30", 4096), 400.0);
    (("pointwise_mul_into", 4096), 250.0);
    (("pointwise_mul_into", 65536), 7000.0);
    (("keyswitch", 1024), 11300.0);
    (("keyswitch", 4096), 75000.0);
    (("keyswitch", 65536), 1_250_000.0);
  ]

(* Kernels that must contribute at least one checked entry. *)
let required = [ "ntt_forward"; "keyswitch" ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_kernels: " ^ s); exit 1) fmt

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_cinnamon.json" in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  let root =
    match Json.of_string text with Ok j -> j | Error e -> fail "%s: parse error: %s" path e
  in
  let entries =
    match Option.bind (Json.member "kernel_microbench" root) Json.to_list with
    | Some l -> l
    | None -> fail "%s: no kernel_microbench section" path
  in
  let field name conv e =
    match Option.bind (Json.member name e) conv with
    | Some v -> v
    | None -> fail "%s: microbench entry missing %S" path name
  in
  let checked = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let kernel = field "kernel" Json.to_str e in
      let n = field "n" Json.to_int e in
      match List.assoc_opt (kernel, n) budgets with
      | None -> ()
      | Some budget ->
          let us = field "us_per_op" Json.to_float e in
          Hashtbl.replace checked kernel ();
          if us > budget then fail "%s N=%d took %.1f us/op, budget %.1f us/op" kernel n us budget
          else
            Printf.printf "check_kernels: %s N=%d %.1f us/op within budget %.1f us/op\n" kernel n
              us budget)
    entries;
  List.iter
    (fun kernel ->
      if not (Hashtbl.mem checked kernel) then
        fail "%s: no %s entry with a budgeted ring size" path kernel)
    required;
  print_endline "check_kernels: ok"
