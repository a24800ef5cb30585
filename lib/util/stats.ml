(* Basic summary statistics used by the bench harness and simulator. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    let logs = List.map log xs in
    exp (mean logs)

let minimum xs = List.fold_left min infinity xs
let maximum xs = List.fold_left max neg_infinity xs

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. Float.of_int (List.length xs - 1)
    in
    sqrt var

(* Nearest-rank percentile on a sorted copy: the smallest element with
   at least ceil(p/100 * n) values <= it.  Exact (no interpolation), so
   p95 of 100 samples is the 95th order statistic, as SLO reports
   conventionally quote. *)
let percentile ~p xs =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p must be in [0, 100]";
  match xs with
  | [] -> nan
  | _ ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. Float.of_int n)) in
    arr.(min (n - 1) (max 0 (rank - 1)))

module Histogram = struct
  (* Fixed geometric buckets over (0, hi]: bucket i covers
     (lo*r^i, lo*r^(i+1)] with r = (hi/lo)^(1/buckets).  Values at or
     below [lo] land in bucket 0 and values above [hi] in the last
     bucket; quantiles are clamped to the observed min/max, so
     out-of-range samples degrade resolution, never correctness. *)
  type t = {
    lo : float;
    log_ratio : float;
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let buckets = 512

  let make ~lo ~hi () =
    if not (lo > 0.0 && hi > lo) then invalid_arg "Stats.Histogram.make: need 0 < lo < hi";
    {
      lo;
      log_ratio = log (hi /. lo) /. Float.of_int buckets;
      counts = Array.make buckets 0;
      n = 0;
      sum = 0.0;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let bucket_of t v =
    if v <= t.lo then 0
    else
      let i = int_of_float (Float.floor (log (v /. t.lo) /. t.log_ratio)) in
      min (Array.length t.counts - 1) (max 0 i)

  let add t v =
    if Float.is_nan v then invalid_arg "Stats.Histogram.add: nan sample";
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.sum /. Float.of_int t.n
  let min_value t = if t.n = 0 then nan else t.vmin
  let max_value t = if t.n = 0 then nan else t.vmax

  (* Accumulate [src] into [dst].  Only histograms with identical
     bucket geometry merge (same lo, ratio and bucket count) — the SLO
     layer merges per-node accumulators that all come from the same
     [Slo.create], so a mismatch is a caller bug, not data. *)
  let merge_into ~dst src =
    if
      dst.lo <> src.lo
      || dst.log_ratio <> src.log_ratio
      || Array.length dst.counts <> Array.length src.counts
    then invalid_arg "Stats.Histogram.merge_into: bucket geometry mismatch";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum +. src.sum;
    if src.vmin < dst.vmin then dst.vmin <- src.vmin;
    if src.vmax > dst.vmax then dst.vmax <- src.vmax

  (* Nearest-rank over the bucket counts, linearly interpolated inside
     the selected bucket, then clamped to the observed range (which
     makes the singleton histogram exact). *)
  let quantile t q =
    if Float.is_nan q || q < 0.0 || q > 1.0 then
      invalid_arg "Stats.Histogram.quantile: q must be in [0, 1]";
    if t.n = 0 then nan
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. Float.of_int t.n))) in
      let b = ref 0 and before = ref 0 in
      while !before + t.counts.(!b) < rank do
        before := !before + t.counts.(!b);
        incr b
      done;
      let blo = t.lo *. exp (t.log_ratio *. Float.of_int !b) in
      let bhi = t.lo *. exp (t.log_ratio *. Float.of_int (!b + 1)) in
      let frac = Float.of_int (rank - !before) /. Float.of_int t.counts.(!b) in
      let v = blo +. (frac *. (bhi -. blo)) in
      Float.min t.vmax (Float.max t.vmin v)
    end
end

let max_abs_error ~expected ~actual =
  if Array.length expected <> Array.length actual then
    invalid_arg "Stats.max_abs_error: length mismatch";
  let worst = ref 0.0 in
  Array.iteri (fun i e -> worst := max !worst (Float.abs (e -. actual.(i)))) expected;
  !worst

(* -log2 of the max error: "bits of precision" as FHE papers report. *)
let precision_bits ~expected ~actual =
  let e = max_abs_error ~expected ~actual in
  if e <= 0.0 then 52.0 else -.(log e /. log 2.0)
