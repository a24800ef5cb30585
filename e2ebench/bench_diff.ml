(* Compare two sets of end-to-end benchmark runs.

   Usage: bench_diff.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Each directory holds the JSON files that "e2e.exe --out DIR" writes,
   typically ten untraced runs per workload with different seeds.  For
   every (workload, end-to-end metric) it prints each side's median
   and quartiles, the pairs the change won (runs paired by seed; ties
   count for neither side), and a verdict against the metric's bound
   in BENCHMARK.json:

     improved    the change wins at least 9/10 of the pairs and the
                 medians differ by more than the parent's quartile spread
     unresolved  a side's quartile spread is wider than the bound, and
                 not every change run is better than every parent run
     regressed   the change's median is worse by more than the bound
     unchanged   otherwise

   Exits 1 if any row regressed. *)

module Json = Cinnamon_util.Json
open Summary

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_diff: " ^ s); exit 2) fmt

let read_json file =
  match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" file e

let field conv k j = Option.bind (Json.member k j) conv

type metric = { name : string; lower_better : bool; bound : float }

let metrics_of_bench file =
  let j = read_json file in
  List.map
    (fun m ->
      match (field Json.to_str "name" m, field Json.to_str "better" m, field Json.to_float "bound" m) with
      | Some name, Some better, Some bound -> { name; lower_better = better = "lower"; bound }
      | _ -> die "%s: malformed end_to_end entry" file)
    (Option.value ~default:[] (field Json.to_list "end_to_end" j))

(* (workload, seed) -> metric -> value, from the untraced runs in [dir] *)
let load_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".json") then None
         else
           let j = read_json (Filename.concat dir f) in
           match (field Json.to_str "workload" j, field Json.to_int "seed" j, field Json.to_int "trace" j) with
           | Some w, Some seed, Some 0 ->
             let values =
               match Option.bind (Json.member "result" j) (Json.member "metrics") with
               | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (field Json.to_float "value" v)) kvs
               | _ -> []
             in
             Some ((w, seed), values)
           | _ -> None)

let () =
  let bench, dirs =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--bench"; b; p; c ] -> (b, (p, c))
    | [ p; c ] -> ("BENCHMARK.json", (p, c))
    | _ -> die "usage: bench_diff.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR"
  in
  let metrics = metrics_of_bench bench in
  let parent = load_runs (fst dirs) and change = load_runs (snd dirs) in
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) (parent @ change)) in
  Printf.printf "%-14s %-12s %26s %26s %8s %9s %7s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "delta" "won/n" "spread" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let side runs =
            List.filter_map
              (fun ((w', seed), vs) -> if w' = w then Option.map (fun v -> (seed, v)) (List.assoc_opt m.name vs) else None)
              runs
          in
          let p = side parent and c = side change in
          if p <> [] && c <> [] then begin
            let pv = List.map snd p and cv = List.map snd c in
            let better a b = if m.lower_better then a < b else a > b in
            let pm = median pv and cm = median cv in
            let pq1, pq3 = quartiles pv and cq1, cq3 = quartiles cv in
            let spread = Float.max ((pq3 -. pq1) /. Float.abs pm) ((cq3 -. cq1) /. Float.abs cm) in
            let pairs = List.filter_map (fun (seed, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt seed c)) p in
            let won = List.length (List.filter (fun (x, y) -> better y x) pairs) in
            let n = List.length pairs in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) pv) cv in
            let worse_by = (if m.lower_better then cm -. pm else pm -. cm) /. Float.abs pm in
            let verdict =
              if n > 0 && 10 * won >= 9 * n && better cm pm && Float.abs (cm -. pm) > pq3 -. pq1 then "improved"
              else if spread > m.bound && not all_better then "unresolved"
              else if worse_by > m.bound then "regressed"
              else "unchanged"
            in
            if verdict = "regressed" then regressed := true;
            let cell md (q1, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" md q1 q3 in
            Printf.printf "%-14s %-12s %26s %26s %+7.2f%% %5d/%-3d %6.2f%% %5.0f%%  %s\n" w m.name
              (cell pm (pq1, pq3)) (cell cm (cq1, cq3)) (100.0 *. (cm -. pm) /. Float.abs pm) won n
              (100.0 *. spread) (100.0 *. m.bound) verdict
          end)
        metrics)
    workloads;
  exit (if !regressed then 1 else 0)
