(** Per-component area model of a Cinnamon chip (paper Table 1, §4.7,
    §5): analytical, seeded so the paper configuration reproduces the
    published breakdown, parameterized by lane counts and buffer sizes
    so ablations move area consistently. *)

type component = { comp_name : string; area_mm2 : float; count : int }

type chip_area = {
  components : component list;
  fu_area : float;
  bcu_buffers_mm2 : float;
  register_file_mm2 : float;
  hbm_phy_mm2 : float;
  net_phy_mm2 : float;
  total_mm2 : float;
}

type config = {
  lanes : int;  (** per cluster, main FUs (reference: 256) *)
  bcu_lanes : int;  (** per cluster (reference: 128, the compact BCU) *)
  clusters : int;
  rf_mb : float;
  bcu_buffer_mb : float;
  n_add : int;
  n_mul : int;
  n_prng : int;
  n_ntt : int;
  n_transpose : int;
  n_bcu : int;
  hbm_stacks : int;
  net_phys : int;
}

(** The paper's Cinnamon chip (Table 1). *)
val cinnamon_chip_config : config

val area_of : config -> chip_area
val cinnamon_chip : chip_area lazy_t
val cinnamon_m : chip_area lazy_t

(** §4.7's claimed BCU resource reductions vs the CraterLake-style
    output-buffered design. *)
type bcu_comparison = {
  craterlake_multipliers : int;
  cinnamon_multipliers : int;
  craterlake_buffer_mb : float;
  cinnamon_buffer_mb : float;
}

val bcu_comparison : bcu_comparison
