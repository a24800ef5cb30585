(* Manufacturing yield and cost model (paper §7.2, Table 3).

   Yield uses the negative-binomial defect model of Stow et al.:

     Y = (1 + D0 * A / alpha)^(-alpha)

   with the paper's (optimistic) defect density D0 = 0.2/cm² and
   clustering parameter alpha = 3.  Dies per 300 mm wafer use the
   standard geometric estimate, and tape-out cost per good die is
   wafer-price-derived, matching the paper's Table 3 inputs. *)

(* Table 3 gives $/mm²-of-wafer prices directly; we keep them as given
   (57500, 23000, 10500 per wafer-area normalization unit) and treat
   them as the per-die-area price basis below. *)

type accelerator = {
  accel_name : string;
  die_area_mm2 : float;
  process : string;
  wafer_price : float; (* the Table 3 "$/mm²" column basis *)
  chips_needed : int; (* chips per deployed system *)
}

let defect_density_per_cm2 = 0.2
let clustering_alpha = 3.0
let wafer_diameter_mm = 300.0

(* Negative-binomial yield. *)
let yield_of ~area_mm2 =
  let a_cm2 = area_mm2 /. 100.0 in
  Float.pow (1.0 +. (defect_density_per_cm2 *. a_cm2 /. clustering_alpha)) (-.clustering_alpha)

(* Gross dies per wafer (geometric estimate with edge loss). *)
let dies_per_wafer ~area_mm2 =
  let r = wafer_diameter_mm /. 2.0 in
  let wafer_area = Float.pi *. r *. r in
  let edge = Float.pi *. wafer_diameter_mm /. sqrt (2.0 *. area_mm2) in
  max 1 (int_of_float ((wafer_area /. area_mm2) -. edge))

(* Cost per *good* die, using the wafer price basis of Table 3. *)
let cost_per_good_die ~area_mm2 ~wafer_price =
  let y = yield_of ~area_mm2 in
  let dpw = Float.of_int (dies_per_wafer ~area_mm2) in
  wafer_price /. (dpw *. y)

(* The accelerators of Table 3. *)
let ark = { accel_name = "ARK"; die_area_mm2 = 418.3; process = "7nm"; wafer_price = 57_500.0; chips_needed = 1 }
let cifher = { accel_name = "CiFHER"; die_area_mm2 = 47.08; process = "7nm"; wafer_price = 57_500.0; chips_needed = 16 }
let craterlake = { accel_name = "CraterLake"; die_area_mm2 = 472.0; process = "14nm"; wafer_price = 23_000.0; chips_needed = 1 }
let cinnamon_m = { accel_name = "Cinnamon-M"; die_area_mm2 = 719.78; process = "22nm"; wafer_price = 10_500.0; chips_needed = 1 }
let cinnamon = { accel_name = "Cinnamon"; die_area_mm2 = 223.18; process = "22nm"; wafer_price = 10_500.0; chips_needed = 4 }

let table3 = [ ark; cifher; craterlake; cinnamon_m; cinnamon ]

(* Paper-reported Table 3 values, for the regression checks. *)
let paper_yields =
  [ ("ARK", 0.48); ("CiFHER", 0.90); ("CraterLake", 0.44); ("Cinnamon-M", 0.31); ("Cinnamon", 0.66) ]

type row = {
  r_name : string;
  r_area : float;
  r_yield : float;
  r_dies_per_wafer : int;
  r_cost_per_die : float;
}

let row a =
  {
    r_name = a.accel_name;
    r_area = a.die_area_mm2;
    r_yield = yield_of ~area_mm2:a.die_area_mm2;
    r_dies_per_wafer = dies_per_wafer ~area_mm2:a.die_area_mm2;
    r_cost_per_die = cost_per_good_die ~area_mm2:a.die_area_mm2 ~wafer_price:a.wafer_price;
  }

(* Cost of a full deployed system (all chips). *)
let system_cost a = Float.of_int a.chips_needed *. cost_per_good_die ~area_mm2:a.die_area_mm2 ~wafer_price:a.wafer_price

(* Cinnamon system with [chips] chips. *)
let cinnamon_n chips = { cinnamon with accel_name = Printf.sprintf "Cinnamon-%d" chips; chips_needed = chips }
