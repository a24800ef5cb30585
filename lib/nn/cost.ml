(* Packing cost model (see cost.mli).

   Units are keyswitch-equivalents: one full rotation keyswitch = 1.0.
   The default ratios come from the kernel microbenches
   (hoisted_rotate4 vs rotate4_unhoisted gives the hoisted marginal
   cost, pointwise_mul_into vs keyswitch the plaintext-mult cost).
   They are constants: no file on disk changes a compiled program. *)

type weights = {
  w_rotate : float;
  w_rotate_hoisted : float;
  w_pmult : float;
  w_add : float;
  w_level : float;
}

let default =
  {
    w_rotate = 1.0;
    w_rotate_hoisted = 0.35;
    w_pmult = 0.08;
    w_add = 0.01;
    w_level = 0.05;
  }

(* --- per-packing costs -------------------------------------------------- *)

type split = { n1 : int; n2 : int }

let cdiv = Cinnamon_util.Bitops.cdiv

(* A hoisted batch of k rotations: the first pays the full keyswitch
   (including the decomposition every target then shares), each
   further target only the key-MAC + mod-down share. *)
let hoisted_batch w k =
  if k <= 0 then 0.0 else w.w_rotate +. (Float.of_int (k - 1) *. w.w_rotate_hoisted)

let bsgs_units w ~diagonals ~n1 =
  if n1 < 1 || n1 > diagonals then invalid_arg "Cost.bsgs_units: n1 out of range";
  let n2 = cdiv diagonals n1 in
  hoisted_batch w (n1 - 1) (* babies: rotate v by 1..n1-1, one decomposition *)
  +. (Float.of_int (n2 - 1) *. w.w_rotate) (* giants: distinct group sums, full rate *)
  +. (Float.of_int diagonals *. w.w_pmult) (* raw diagonal mults *)
  +. (Float.of_int (diagonals - 1) *. w.w_add)
  +. w.w_level

let column_units w ~rows ~cols =
  let log2c = Cinnamon_util.Bitops.ceil_log2 cols in
  Float.of_int (rows * log2c) *. w.w_rotate (* per-row rotate-and-sum, unhoistable *)
  +. (Float.of_int (2 * rows) *. w.w_pmult) (* row mult + slot mask per row *)
  +. (Float.of_int (rows - 1) *. w.w_add)
  +. (2.0 *. w.w_level)

let best_split w ~diagonals =
  let best = ref 1 and best_u = ref (bsgs_units w ~diagonals ~n1:1) in
  for n1 = 2 to diagonals do
    let u = bsgs_units w ~diagonals ~n1 in
    if u < !best_u then begin
      best := n1;
      best_u := u
    end
  done;
  { n1 = !best; n2 = cdiv diagonals !best }
