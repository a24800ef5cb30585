(** Manufacturing yield and tape-out cost (paper §7.2, Table 3):
    negative-binomial yield (D0 = 0.2 cm⁻², α = 3), geometric
    dies-per-wafer, cost per good die. *)

type accelerator = {
  accel_name : string;
  die_area_mm2 : float;
  process : string;
  wafer_price : float;
  chips_needed : int;  (** chips per deployed system *)
}

(** Negative-binomial yield of a die of the given area. *)
val yield_of : area_mm2:float -> float

val dies_per_wafer : area_mm2:float -> int
val cost_per_good_die : area_mm2:float -> wafer_price:float -> float

(** The accelerators of Table 3. *)
val ark : accelerator

val cifher : accelerator
val craterlake : accelerator
val cinnamon_m : accelerator
val cinnamon : accelerator
val table3 : accelerator list

(** Paper-reported yields, for regression checks. *)
val paper_yields : (string * float) list

type row = {
  r_name : string;
  r_area : float;
  r_yield : float;
  r_dies_per_wafer : int;
  r_cost_per_die : float;
}

val row : accelerator -> row

(** Cost of all chips of a deployed system. *)
val system_cost : accelerator -> float

(** A Cinnamon system with the given chip count. *)
val cinnamon_n : int -> accelerator
