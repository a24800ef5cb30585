(* Order statistics shared by the benchmark and bench_diff. *)

(* The middle value, or the mean of the two middle values. *)
let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's statistics.quantiles(n=4)
   computes them (its default "exclusive" method). *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. Float.of_int (4 - delta)) +. (d.(j) *. Float.of_int delta)) /. 4.0
    in
    (q 1, q 3)
