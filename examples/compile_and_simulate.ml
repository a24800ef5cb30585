(* The full Cinnamon toolchain on one page: write an FHE program in the
   DSL, compile it through the three IRs for several scale-out
   configurations, verify every artifact statically, and
   cycle-simulate each configuration.

   Run with:  dune exec examples/compile_and_simulate.exe *)

module Dsl = Cinnamon.Dsl
module CC = Cinnamon_compiler.Compile_config
module SC = Cinnamon_sim.Sim_config
module Sim = Cinnamon_sim.Simulator
module T = Cinnamon_util.Table

(* One CKKS bootstrap at the paper's architectural parameters. *)
let program = Cinnamon_workloads.Kernels.bootstrap_program ()

let () =
  Printf.printf "program: one CKKS bootstrap, %d ciphertext ops, %d keyswitches\n\n%!"
    (Cinnamon_ir.Ct_ir.size program)
    (Cinnamon_ir.Ct_ir.keyswitch_count program);
  let t = T.create ~title:"Bootstrap across configurations"
      ~header:[ "Config"; "ISA instrs"; "Comm"; "Time"; "Compute"; "Memory"; "Network" ]
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ] () in
  List.iter
    (fun (name, chips, sc) ->
      (* the static verifier must accept every artifact, the machine
         code included (a typed Verification error otherwise) *)
      let r = Cinnamon_compiler.Pipeline.compile ~verify:true (CC.paper ~chips ()) program in
      let res = Sim.run sc r.Cinnamon_compiler.Pipeline.machine in
      let instrs =
        Array.fold_left
          (fun a p -> a + Array.length p.Cinnamon_isa.Isa.instrs)
          0 r.Cinnamon_compiler.Pipeline.machine.Cinnamon_isa.Isa.programs
      in
      let pct v = Printf.sprintf "%.0f%%" (100.0 *. v) in
      T.add_row t
        [ name; string_of_int instrs;
          T.fmt_bytes r.Cinnamon_compiler.Pipeline.comm.Cinnamon_ir.Limb_ir.bytes_moved;
          T.fmt_time res.Sim.seconds; pct res.Sim.util.Sim.compute;
          pct res.Sim.util.Sim.memory; pct res.Sim.util.Sim.network ];
      Printf.printf "  %s done\n%!" name)
    [
      ("1 chip (sequential)", 1, SC.cinnamon_1);
      ("Cinnamon-4 (ring)", 4, SC.cinnamon_4);
      ("Cinnamon-8 (ring)", 8, SC.cinnamon_8);
    ];
  T.print t;
  print_endline "OK"
