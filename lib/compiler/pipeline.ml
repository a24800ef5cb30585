(* End-to-end compile driver: ciphertext IR through the full stack.

     Ct_ir --(Lower_poly)--> Poly_ir --(Keyswitch_pass)-->
     annotated Poly_ir --(Lower_limb)--> Limb_ir
     --(Regalloc + Lower_isa)--> per-chip Cinnamon ISA

   Each stage's artifacts are kept in the result so tests, benches and
   the simulator can inspect any level. *)

open Cinnamon_ir
module Tel = Cinnamon_telemetry.Telemetry

type result = {
  cfg : Compile_config.t;
  ct : Ct_ir.t;
  poly : Poly_ir.t;
  limb : Limb_ir.t;
  ks_report : Keyswitch_pass.report;
  machine : Cinnamon_isa.Isa.machine_program;
  regalloc : Regalloc.stats array;
  comm : Limb_ir.comm_stats;
}

module Error = Cinnamon_util.Error

(* Pass-level counters surfaced by the CLI's --metrics report. *)
let c_ks_batches = Tel.Counter.make ~cat:"compiler" "keyswitch.batches"
let c_ks_batched_sites = Tel.Counter.make ~cat:"compiler" "keyswitch.batched_sites"
let c_ks_bytes_saved = Tel.Counter.make ~cat:"compiler" "keyswitch.net_bytes_saved_est"
let c_comm_bytes = Tel.Counter.make ~cat:"compiler" "comm.bytes_moved"

(* Interconnect bytes the §4.3.1 batching avoided: pattern A merges one
   mod-up broadcast per site into one per group, pattern B two mod-down
   aggregations per site into two per group; each avoided collective
   would have carried one digit (alpha limbs) per chip. *)
let ks_bytes_saved (cfg : Compile_config.t) (rep : Keyswitch_pass.report) =
  let avoided =
    rep.Keyswitch_pass.pattern_a_sites - rep.Keyswitch_pass.pattern_a_groups
    + (2 * (rep.Keyswitch_pass.pattern_b_sites - rep.Keyswitch_pass.pattern_b_groups))
  in
  avoided * cfg.Compile_config.alpha * Compile_config.limb_bytes cfg

(* Static verification over a finished result.  Kept eta-expanded under
   a private name so [compile]'s [?verify] flag doesn't shadow it. *)
let run_verify ?rotation_keys (r : result) : Verify.violation list =
  Verify.all ?rotation_keys ~cfg:r.cfg ~ct:r.ct ~poly:r.poly ~limb:r.limb ~machine:r.machine
    ~regalloc:r.regalloc ()

let verify = run_verify

let compile ?(verify = false) (cfg : Compile_config.t) (ct : Ct_ir.t) : result =
  let chips = cfg.Compile_config.chips and group_size = cfg.Compile_config.group_size in
  if chips < 1 || group_size < 1 || group_size > chips then
    Error.failf Error.Invalid_input
      "Pipeline.compile: need chips >= 1 and 1 <= group_size <= chips (chips=%d, group_size=%d)" chips
      group_size;
  Tel.Span.with_ ~cat:"compiler" "compile"
    ~args:
      [ ("chips", Tel.Int cfg.Compile_config.chips); ("ct_nodes", Tel.Int (Ct_ir.size ct)) ]
  @@ fun () ->
  let poly =
    Tel.Span.with_ ~cat:"compiler" "lower_poly"
      ~args:[ ("ct_nodes_in", Tel.Int (Ct_ir.size ct)) ]
      (fun () ->
        let poly = Lower_poly.lower cfg ct in
        Tel.Span.add_args
          [ ("poly_nodes_out", Tel.Int (Poly_ir.size poly));
            ("keyswitches", Tel.Int (Poly_ir.stats poly).Poly_ir.keyswitches) ];
        poly)
  in
  let limb, ks_report =
    Tel.Span.with_ ~cat:"compiler" "lower_limb"
      ~args:[ ("poly_nodes_in", Tel.Int (Poly_ir.size poly)) ]
      (fun () ->
        let limb, (rep : Keyswitch_pass.report) = Lower_limb.lower cfg poly in
        let batches = rep.Keyswitch_pass.pattern_a_groups + rep.Keyswitch_pass.pattern_b_groups in
        let batched = rep.Keyswitch_pass.pattern_a_sites + rep.Keyswitch_pass.pattern_b_sites in
        let saved = ks_bytes_saved cfg rep in
        Tel.Counter.add c_ks_batches batches;
        Tel.Counter.add c_ks_batched_sites batched;
        Tel.Counter.add c_ks_bytes_saved saved;
        let limb_instrs =
          Array.fold_left (fun a p -> a + List.length p.Limb_ir.instrs) 0 limb.Limb_ir.chips
        in
        Tel.Span.add_args
          [ ("limb_instrs_out", Tel.Int limb_instrs);
            ("ks_batches", Tel.Int batches); ("ks_batched_sites", Tel.Int batched);
            ("ks_total_sites", Tel.Int rep.Keyswitch_pass.total_sites);
            ("net_bytes_saved_est", Tel.Int saved) ];
        (limb, rep))
  in
  let limb_bytes = Compile_config.limb_bytes cfg in
  let num_regs = Compile_config.registers cfg in
  let machine, regalloc =
    Tel.Span.with_ ~cat:"compiler" "regalloc+lower_isa"
      ~args:[ ("num_regs", Tel.Int num_regs) ]
      (fun () ->
        let machine, regalloc =
          Lower_isa.translate ~num_regs ~n:(Compile_config.n cfg) ~limb_bytes limb
        in
        let instrs =
          Array.fold_left (fun a p -> a + Array.length p.Cinnamon_isa.Isa.instrs) 0
            machine.Cinnamon_isa.Isa.programs
        in
        let spills = Array.fold_left (fun a s -> a + s.Regalloc.spills) 0 regalloc in
        Tel.Span.add_args
          [ ("isa_instrs_out", Tel.Int instrs); ("spills", Tel.Int spills) ];
        (machine, regalloc))
  in
  let comm = Limb_ir.comm_stats limb in
  Tel.Counter.add c_comm_bytes comm.Limb_ir.bytes_moved;
  Tel.Span.add_args [ ("comm_bytes", Tel.Int comm.Limb_ir.bytes_moved) ];
  let r = { cfg; ct; poly; limb; ks_report; machine; regalloc; comm } in
  if verify then begin
    match run_verify r with
    | [] -> ()
    | vs ->
      let shown = List.filteri (fun i _ -> i < 5) vs in
      Error.failf Error.Verification "%d verifier violation(s): %s%s" (List.length vs)
        (String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_violation) shown))
        (if List.length vs > 5 then "; ..." else "")
  end;
  r

(* Summary line used by the CLI and benches. *)
let summary r =
  let total_instrs =
    Array.fold_left (fun a p -> a + Array.length p.Cinnamon_isa.Isa.instrs) 0 r.machine.Cinnamon_isa.Isa.programs
  in
  Printf.sprintf
    "chips=%d ct-nodes=%d poly-nodes=%d isa-instrs=%d keyswitches=%d bcasts=%d aggs=%d comm-bytes=%d"
    r.cfg.Compile_config.chips (Ct_ir.size r.ct) (Poly_ir.size r.poly) total_instrs
    (Poly_ir.stats r.poly).Poly_ir.keyswitches r.comm.Limb_ir.broadcasts r.comm.Limb_ir.aggregations
    r.comm.Limb_ir.bytes_moved
