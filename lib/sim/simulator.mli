(** Cycle-level discrete-event simulation of a Cinnamon system.

    Issue model: dataflow with resource contention — an instruction
    issues when its source registers are ready and its functional unit
    (or HBM channel) is free, matching a statically scheduled machine
    (the paper's compiler performs cycle-level scheduling, §4.4).
    Collectives rendezvous across their chip group and occupy only the
    network port; they gate only their received registers and the
    port, never later instructions on the chip.

    Every run accounts each chip's timeline into busy / stall / idle
    cycles.  When the {!Cinnamon_telemetry.Telemetry} sink is enabled,
    the simulator also emits one trace event per instruction (pid =
    1 + chip, tid = resource row, timestamps in cycles). *)

type utilization = {
  compute : float;  (** average busy fraction of the compute FUs *)
  memory : float;  (** HBM channel busy fraction *)
  network : float;  (** interconnect port busy fraction *)
}

(** Where one chip's simulated cycles went.  Busy counts cycles the
    chip's timeline advanced under occupancy of any resource (FU, HBM,
    or network transfer).  A stall is time when nothing on the chip is
    occupied, so it is charged to operand readiness or to a rendezvous:
    every unit, the HBM channel and the port was last occupied up to a
    time the timeline has already accounted, so none of them is busy
    when the next instruction waits.  Idle is the tail after the chip's
    last activity, up to the machine-wide finish.  The parts always
    sum to [cs_total], the machine's total simulated cycles. *)
type chip_stats = {
  cs_busy : int;
  cs_stall_operand : int;  (** waiting on source registers *)
  cs_stall_fu : int;  (** always 0: no stall waits on a busy unit *)
  cs_stall_hbm : int;  (** always 0: no stall waits on the HBM channel *)
  cs_stall_network : int;  (** waiting on a collective's peers *)
  cs_idle : int;
  cs_total : int;
}

type result = {
  cycles : int;
  seconds : float;
  util : utilization;
  per_chip_cycles : int array;
  per_chip_stats : chip_stats array;  (** stall-cause breakdown per chip *)
}

(** Simulate a compiled machine program on a hardware configuration.
    Deterministic.  Raises [Cinnamon_util.Error] of kind [Invalid_input]
    if an instruction names a register outside its program's
    [\[0, n_regs)], or if inconsistent collective groups deadlock the
    rendezvous (the message names each pending collective id, the
    chips that arrived and the group). *)
val run : Sim_config.t -> Cinnamon_isa.Isa.machine_program -> result
