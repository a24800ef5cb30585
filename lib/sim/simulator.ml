(* Cycle-level discrete-event simulation of a Cinnamon system.

   Each chip executes its ISA stream in order with a scoreboard:
   an instruction issues when its source registers are ready and its
   functional unit (or memory channel) is free; pipelined FUs are
   occupied for the vector-streaming duration and deliver the result a
   pipeline latency later.  Loads contend on HBM bandwidth; collectives
   rendezvous across the participating chips and complete after the
   interconnect transfer time.

   The model's granularity matches what the paper's evaluation needs:
   per-instruction FU occupancy, memory bandwidth, and network
   bandwidth — the three resources Figs. 13-16 trade against each
   other.

   Telemetry: when the global sink is enabled the issue loop emits one
   Chrome-trace event per instruction (pid = 1 + chip, tid = resource
   row, timestamps in cycles).  Every chip keeps an account of where
   its timeline went: cycles advancing under occupancy are busy, a gap
   with nothing occupied is a stall on operands or on a rendezvous, and
   the tail after a chip's last activity is idle, so for every chip
   busy + stalls + idle = its total simulated cycles. *)

module I = Cinnamon_isa.Isa
module C = Sim_config
module Tel = Cinnamon_telemetry.Telemetry
module Error = Cinnamon_util.Error

type utilization = {
  compute : float; (* area-weighted-ish average busy fraction of FUs *)
  memory : float;
  network : float;
}

type chip_stats = {
  cs_busy : int; (* cycles the chip's timeline advanced under occupancy *)
  cs_stall_operand : int; (* waiting on source registers *)
  cs_stall_fu : int; (* always 0: see [account] *)
  cs_stall_hbm : int; (* always 0: see [account] *)
  cs_stall_network : int; (* waiting on a rendezvous *)
  cs_idle : int; (* tail after the chip's last activity *)
  cs_total : int; (* = busy + stalls + idle *)
}

type result = {
  cycles : int;
  seconds : float;
  util : utilization;
  per_chip_cycles : int array;
  per_chip_stats : chip_stats array;
}

type chip_state = {
  fu_free : (I.fu_class, int) Hashtbl.t;
  reg_ready : int array;
  mutable mem_free : int;
  mutable net_free : int;
  mutable busy_compute : int;
  mutable busy_mem : int;
  mutable busy_net : int;
  mutable pc : int;
  (* --- timeline accounting (always cheap; integers only) --- *)
  mutable cursor : int; (* time accounted so far: busy + stalls *)
  mutable acct_busy : int;
  mutable st_operand : int;
  mutable st_network : int;
}

let fu_classes =
  [ I.C_add; I.C_mul; I.C_ntt; I.C_auto; I.C_bconv; I.C_transpose; I.C_prng ]

(* Trace rows: one tid per FU class, then HBM and the network port. *)
let fu_tid cls =
  let rec index i = function
    | [] -> 0
    | c :: _ when c = cls -> i
    | _ :: rest -> index (i + 1) rest
  in
  index 0 fu_classes

let tid_hbm = List.length fu_classes
let tid_net = tid_hbm + 1

let fu_trace_name = function
  | I.C_add -> "add"
  | I.C_mul -> "mul"
  | I.C_ntt -> "ntt"
  | I.C_auto -> "auto"
  | I.C_bconv -> "bconv"
  | I.C_transpose -> "transpose"
  | I.C_prng -> "prng"
  | I.C_mem -> "mem"
  | I.C_net -> "net"

let new_chip_state n_regs =
  let fu_free = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.add fu_free c 0) fu_classes;
  {
    fu_free;
    reg_ready = Array.make (max 1 n_regs) 0;
    mem_free = 0;
    net_free = 0;
    busy_compute = 0;
    busy_mem = 0;
    busy_net = 0;
    pc = 0;
    cursor = 0;
    acct_busy = 0;
    st_operand = 0;
    st_network = 0;
  }

(* Each scoreboard has [n_regs] entries: reject a register outside them
   before simulating anything. *)
let check_registers (p : I.program) =
  let outside bad r = bad || r < 0 || r >= p.I.n_regs in
  Array.iteri
    (fun i ins ->
      if I.fold_writes outside (I.fold_reads outside false ins) ins then
        Error.failf Error.Invalid_input
          "Simulator.run: chip %d instruction %d (%s) names a register outside [0, %d)" p.I.chip i
          (I.mnemonic ins) p.I.n_regs)
    p.I.instrs

(* Operand folds over one chip's scoreboard: the time every register
   read so far is ready, and a write of register [r] ready at [t]. *)
let ready st t r = max t st.reg_ready.(r)

let set_ready st t r =
  st.reg_ready.(r) <- t;
  t

(* Account an instruction issuing at [issue] and occupying its resource
   until [issue + occ].  Every unit, the HBM channel and the network
   port was last occupied by an instruction accounted up to the end of
   that occupancy, and the cursor never moves back, so all of them are
   free by [st.cursor]: a gap before [issue] is a wait on operands, and
   no stall is ever charged to a busy unit or channel. *)
let account st ~issue ~occ =
  if issue > st.cursor then begin
    st.st_operand <- st.st_operand + (issue - st.cursor);
    st.cursor <- issue
  end;
  let fin = issue + occ in
  if fin > st.cursor then begin
    st.acct_busy <- st.acct_busy + (fin - st.cursor);
    st.cursor <- fin
  end

(* Advance one chip until it blocks on a collective (returning its id
   and arrival time) or finishes.

   Issue model: dataflow with resource contention.  The compiler's
   cycle-level scheduler (paper §4.4) reorders instructions, so an
   instruction issues as soon as its sources are ready and its
   functional unit (or the HBM channel) is free — program order only
   constrains through data dependences.  A collective gates only its
   received registers and the network port. *)
let run_until_collective cfg ~n_elems ~chip prog st =
  let traced = Tel.enabled () in
  let pid = 1 + chip in
  let blocked = ref None in
  let instrs = prog.I.instrs in
  let nn = Array.length instrs in
  let limb_bytes = 4 * n_elems in
  let ready = ready st and set_ready = set_ready st in
  while !blocked = None && st.pc < nn do
    let ins = instrs.(st.pc) in
    (match ins with
    | I.Net_bcast { coll_id; group; limbs; _ } | I.Net_agg { coll_id; group; limbs; _ } ->
      (* arrival: the sent limbs must be computed, and this chip's
         network port must be free (successive collectives serialize on
         it); everything else keeps flowing *)
      let arrival = max st.net_free (I.fold_reads ready 0 ins) in
      (* charge the wait for the sent limbs here; the rendezvous +
         transfer window is charged at completion *)
      account st ~issue:arrival ~occ:0;
      blocked := Some (coll_id, group, limbs, arrival)
    | I.Vload { dst; _ } ->
      let d = C.mem_cycles cfg limb_bytes in
      let issue = st.mem_free in
      account st ~issue ~occ:d;
      if traced then
        Tel.emit_complete ~cat:"sim" ~pid ~tid:tid_hbm ~ts:(Float.of_int issue)
          ~dur:(Float.of_int d) "vload";
      st.mem_free <- issue + d;
      st.busy_mem <- st.busy_mem + d;
      st.reg_ready.(dst) <- issue + d
    | I.Vstore { src; _ } ->
      let d = C.mem_cycles cfg limb_bytes in
      let issue = max st.mem_free st.reg_ready.(src) in
      account st ~issue ~occ:d;
      if traced then
        Tel.emit_complete ~cat:"sim" ~pid ~tid:tid_hbm ~ts:(Float.of_int issue)
          ~dur:(Float.of_int d) "vstore";
      st.mem_free <- issue + d;
      st.busy_mem <- st.busy_mem + d
    | _ ->
      let cls = I.fu_of_instr ins in
      let occupancy = C.op_cycles cfg ~n:n_elems cls in
      let latency = occupancy + cfg.C.ntt_pipe_depth in
      let fu = try Hashtbl.find st.fu_free cls with Not_found -> 0 in
      let issue = max fu (I.fold_reads ready 0 ins) in
      account st ~issue ~occ:occupancy;
      if traced then
        Tel.emit_complete ~cat:"sim" ~pid ~tid:(fu_tid cls) ~ts:(Float.of_int issue)
          ~dur:(Float.of_int occupancy) (fu_trace_name cls);
      Hashtbl.replace st.fu_free cls (issue + occupancy);
      st.busy_compute <- st.busy_compute + occupancy;
      ignore (I.fold_writes set_ready (issue + latency) ins));
    if !blocked = None then st.pc <- st.pc + 1
  done;
  !blocked

(* Simulate a compiled machine program; N is taken from the program. *)
let run cfg (mp : I.machine_program) : result =
  let n_elems = mp.I.n in
  let traced = Tel.enabled () in
  Array.iter check_registers mp.I.programs;
  let states = Array.map (fun p -> new_chip_state p.I.n_regs) mp.I.programs in
  let chips = Array.length mp.I.programs in
  if traced then
    Array.iteri
      (fun c _ ->
        let pid = 1 + c in
        Tel.name_process ~pid (Printf.sprintf "%s chip %d" cfg.C.name c);
        List.iter (fun cls -> Tel.name_thread ~pid ~tid:(fu_tid cls) (fu_trace_name cls)) fu_classes;
        Tel.name_thread ~pid ~tid:tid_hbm "hbm";
        Tel.name_thread ~pid ~tid:tid_net "network")
      mp.I.programs;
  let pending : (int, (int * int list * int * int) list) Hashtbl.t = Hashtbl.create 16 in
  (* coll_id -> arrivals (chip, group, limbs, time) *)
  let finished = Array.make chips false in
  (* a chip blocked at a collective must not re-file its arrival *)
  let blocked_on = Array.make chips None in
  let progress = ref true in
  while !progress do
    progress := false;
    for c = 0 to chips - 1 do
      if (not finished.(c)) && blocked_on.(c) = None then begin
        match run_until_collective cfg ~n_elems ~chip:c mp.I.programs.(c) states.(c) with
        | None ->
          finished.(c) <- true;
          progress := true
        | Some (id, group, limbs, t) ->
          blocked_on.(c) <- Some id;
          let cur = try Hashtbl.find pending id with Not_found -> [] in
          Hashtbl.replace pending id ((c, group, limbs, t) :: cur);
          let group_size = max 1 (List.length group) in
          let arrivals = Hashtbl.find pending id in
          if List.length arrivals >= group_size then begin
            (* rendezvous complete: compute transfer time *)
            let t_arrive = List.fold_left (fun a (_, _, _, t) -> max a t) 0 arrivals in
            let total_limbs = match arrivals with (_, _, l, _) :: _ -> l | [] -> 0 in
            let bytes = total_limbs * 4 * n_elems in
            let hops =
              match cfg.C.topology with
              | C.Ring -> group_size * cfg.C.hop_latency_cycles
              | C.Switch -> 2 * cfg.C.hop_latency_cycles
            in
            let dur = C.net_cycles cfg bytes + hops in
            let t_done = t_arrive + dur in
            List.iter
              (fun (c', _, _, _) ->
                let st' = states.(c') in
                (* rendezvous wait (peers still arriving) then transfer *)
                if t_arrive > st'.cursor then begin
                  st'.st_network <- st'.st_network + (t_arrive - st'.cursor);
                  st'.cursor <- t_arrive
                end;
                if t_done > st'.cursor then begin
                  st'.acct_busy <- st'.acct_busy + (t_done - st'.cursor);
                  st'.cursor <- t_done
                end;
                if traced then
                  Tel.emit_complete ~cat:"sim" ~pid:(1 + c') ~tid:tid_net
                    ~ts:(Float.of_int t_arrive) ~dur:(Float.of_int dur)
                    ~args:[ ("bytes", Tel.Int bytes); ("coll_id", Tel.Int id) ]
                    "collective";
                st'.net_free <- t_done;
                st'.busy_net <- st'.busy_net + dur;
                (* make the received limbs available at completion *)
                ignore (I.fold_writes (set_ready st') t_done mp.I.programs.(c').I.instrs.(st'.pc));
                st'.pc <- st'.pc + 1;
                blocked_on.(c') <- None)
              arrivals;
            Hashtbl.remove pending id;
            progress := true
          end
      end
    done;
    (* deadlock check: if nothing progressed but chips wait, the
       collective groups are inconsistent *)
    if (not !progress) && Array.exists (fun f -> not f) finished then begin
      if Hashtbl.length pending > 0 then begin
        let buf = Buffer.create 256 in
        Hashtbl.iter
          (fun id arrivals ->
            Buffer.add_string buf
              (Printf.sprintf "coll %d: arrived [%s] group [%s]; " id
                 (String.concat "," (List.map (fun (c, _, _, _) -> string_of_int c) arrivals))
                 (String.concat ","
                    (match arrivals with
                    | (_, g, _, _) :: _ -> List.map string_of_int g
                    | [] -> []))))
          pending;
        Error.failf Error.Invalid_input "Simulator.run: collective rendezvous deadlock: %s"
          (Buffer.contents buf)
      end
      else ()
    end
  done;
  let final =
    Array.map
      (fun st ->
        let fu_max = List.fold_left (fun a c -> max a (try Hashtbl.find st.fu_free c with Not_found -> 0)) 0 fu_classes in
        max st.net_free (max fu_max st.mem_free))
      states
  in
  let cycles = Array.fold_left max 0 final in
  let cycles = max cycles 1 in
  let per_chip_stats =
    Array.map
      (fun st ->
        (* total is the machine-wide cycle count: a chip that finishes
           early idles until the slowest chip is done *)
        let stalls = st.st_operand + st.st_network in
        {
          cs_busy = st.acct_busy;
          cs_stall_operand = st.st_operand;
          cs_stall_fu = 0;
          cs_stall_hbm = 0;
          cs_stall_network = st.st_network;
          cs_idle = cycles - st.acct_busy - stalls;
          cs_total = cycles;
        })
      states
  in
  let avg f = Array.fold_left (fun a st -> a +. f st) 0.0 states /. Float.of_int chips in
  {
    cycles;
    seconds = Float.of_int cycles /. (cfg.C.clock_ghz *. 1e9);
    util =
      {
        (* busy_compute sums occupancy across FU classes; normalize by
           the classes that do real work in FHE streams (~4 active). *)
        compute = avg (fun st -> Float.of_int st.busy_compute) /. Float.of_int cycles /. 4.0;
        memory = avg (fun st -> Float.of_int st.busy_mem) /. Float.of_int cycles;
        network = avg (fun st -> Float.of_int st.busy_net) /. Float.of_int cycles;
      };
    per_chip_cycles = final;
    per_chip_stats;
  }
