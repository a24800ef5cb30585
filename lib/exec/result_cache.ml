(* Domain-safe, two-tier cache of simulation results.

   Tier 1 is an in-process hashtable guarded by a mutex; tier 2 is an
   optional on-disk store of one JSON file per entry (enabled with
   [set_dir]), so repeated bench runs skip re-simulation across
   processes.  Entries are keyed by the structural Cache_key and named
   by its digest; each file embeds the full key string and a schema
   tag, both verified on load, so a digest collision or a format change
   degrades to a miss, never to a wrong result.

   Concurrent misses on the same key may both compute; both arrive at
   the same (deterministic) result and the second store is a no-op
   semantically.  Computation runs outside the lock.

   Lookups are counted twice: process-wide under the lock ([stats]),
   and per domain in a Domain.DLS copy ([counted] reads it).  A fleet
   replay that runs as one pool job makes every lookup on its own
   domain, so its own counts are a delta of that domain's copy even
   while other replays run beside it. *)

module Sim = Cinnamon_sim.Simulator
module Json = Cinnamon_util.Json
module Tel = Cinnamon_telemetry.Telemetry

let c_hits = Tel.Counter.make ~cat:"exec" "sim_cache.hits"
let c_misses = Tel.Counter.make ~cat:"exec" "sim_cache.misses"
let c_disk_hits = Tel.Counter.make ~cat:"exec" "sim_cache.disk_hits"

type stats = { hits : int; misses : int; disk_hits : int; stores : int }

let mutex = Mutex.create ()
let table : (string, Sim.result) Hashtbl.t = Hashtbl.create 64
let dir_ref : string option ref = ref None
let zero = { hits = 0; misses = 0; disk_hits = 0; stores = 0 }
let stats_ref = ref zero
let domain_ref : stats ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref zero)

let hit s = { s with hits = s.hits + 1 }
let miss s = { s with misses = s.misses + 1 }
let disk_hit s = { s with disk_hits = s.disk_hits + 1 }
let store s = { s with stores = s.stores + 1 }

(* The calling domain's copy; the process-wide one is bumped under the
   lock by the caller. *)
let count_here bump =
  let mine = Domain.DLS.get domain_ref in
  mine := bump !mine

let locked f =
  Mutex.lock mutex;
  match f () with
  | v ->
    Mutex.unlock mutex;
    v
  | exception e ->
    Mutex.unlock mutex;
    raise e

(* ------------------------------------------------------- disk tier *)

let file_schema = "cinnamon-simcache-v1"

let result_to_json key (r : Sim.result) =
  Json.Obj
    [
      ("schema", Json.Str file_schema);
      ("key", Json.Str (Cache_key.to_string key));
      ("cycles", Json.Int r.Sim.cycles);
      ("seconds", Json.Float r.Sim.seconds);
      ( "util",
        Json.Obj
          [
            ("compute", Json.Float r.Sim.util.Sim.compute);
            ("memory", Json.Float r.Sim.util.Sim.memory);
            ("network", Json.Float r.Sim.util.Sim.network);
          ] );
      ("per_chip_cycles", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) r.Sim.per_chip_cycles)));
      ( "per_chip_stats",
        Json.List
          (Array.to_list
             (Array.map
                (fun (cs : Sim.chip_stats) ->
                  Json.Obj
                    [
                      ("busy", Json.Int cs.Sim.cs_busy);
                      ("stall_operand", Json.Int cs.Sim.cs_stall_operand);
                      ("stall_fu", Json.Int cs.Sim.cs_stall_fu);
                      ("stall_hbm", Json.Int cs.Sim.cs_stall_hbm);
                      ("stall_network", Json.Int cs.Sim.cs_stall_network);
                      ("idle", Json.Int cs.Sim.cs_idle);
                      ("total", Json.Int cs.Sim.cs_total);
                    ])
                r.Sim.per_chip_stats)) );
    ]

let result_of_json key (j : Json.t) : Sim.result option =
  let ( let* ) = Option.bind in
  let* schema = Option.bind (Json.member "schema" j) Json.to_str in
  let* stored_key = Option.bind (Json.member "key" j) Json.to_str in
  if schema <> file_schema || stored_key <> Cache_key.to_string key then None
  else
    let* cycles = Option.bind (Json.member "cycles" j) Json.to_int in
    let* seconds = Option.bind (Json.member "seconds" j) Json.to_float in
    let* util = Json.member "util" j in
    let* compute = Option.bind (Json.member "compute" util) Json.to_float in
    let* memory = Option.bind (Json.member "memory" util) Json.to_float in
    let* network = Option.bind (Json.member "network" util) Json.to_float in
    let* pcc = Option.bind (Json.member "per_chip_cycles" j) Json.to_list in
    let* per_chip_cycles =
      List.fold_left
        (fun acc c -> Option.bind acc (fun l -> Option.map (fun i -> i :: l) (Json.to_int c)))
        (Some []) pcc
      |> Option.map (fun l -> Array.of_list (List.rev l))
    in
    let* pcs = Option.bind (Json.member "per_chip_stats" j) Json.to_list in
    let chip_stats cj =
      let* busy = Option.bind (Json.member "busy" cj) Json.to_int in
      let* op = Option.bind (Json.member "stall_operand" cj) Json.to_int in
      let* fu = Option.bind (Json.member "stall_fu" cj) Json.to_int in
      let* hbm = Option.bind (Json.member "stall_hbm" cj) Json.to_int in
      let* net = Option.bind (Json.member "stall_network" cj) Json.to_int in
      let* idle = Option.bind (Json.member "idle" cj) Json.to_int in
      let* total = Option.bind (Json.member "total" cj) Json.to_int in
      Some
        {
          Sim.cs_busy = busy;
          cs_stall_operand = op;
          cs_stall_fu = fu;
          cs_stall_hbm = hbm;
          cs_stall_network = net;
          cs_idle = idle;
          cs_total = total;
        }
    in
    let* per_chip_stats =
      List.fold_left
        (fun acc cj -> Option.bind acc (fun l -> Option.map (fun cs -> cs :: l) (chip_stats cj)))
        (Some []) pcs
      |> Option.map (fun l -> Array.of_list (List.rev l))
    in
    Some
      {
        Sim.cycles;
        seconds;
        util = { Sim.compute; memory; network };
        per_chip_cycles;
        per_chip_stats;
      }

let entry_path dir key = Filename.concat dir (Cache_key.digest key ^ ".json")

let disk_load key =
  match !dir_ref with
  | None -> None
  | Some dir -> (
    let path = entry_path dir key in
    match
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      contents
    with
    | exception Sys_error _ -> None
    | contents -> (
      match Json.of_string contents with
      | Ok j -> result_of_json key j
      | Error _ -> None))

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let disk_store key r =
  match !dir_ref with
  | None -> ()
  | Some dir -> (
    let path = entry_path dir key in
    (* Atomic publish: write a private temp file, then rename, so a
       concurrent reader never sees a torn entry. *)
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Domain.self () :> int)
    in
    try
      mkdir_p dir;
      let oc = open_out_bin tmp in
      output_string oc (Json.to_string (result_to_json key r));
      output_char oc '\n';
      close_out oc;
      Sys.rename tmp path
    with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------------------------------- public API *)

let set_dir d = locked (fun () -> dir_ref := d)
let dir () = !dir_ref

let clear_memory () = locked (fun () -> Hashtbl.reset table)

let stats () = !stats_ref
let reset_stats () = locked (fun () -> stats_ref := zero)

let diff a ~since =
  {
    hits = a.hits - since.hits;
    misses = a.misses - since.misses;
    disk_hits = a.disk_hits - since.disk_hits;
    stores = a.stores - since.stores;
  }

(* This domain's copy is never reset, so a delta of it is exact. *)
let counted f =
  let mine = Domain.DLS.get domain_ref in
  let since = !mine in
  let v = f () in
  (v, diff !mine ~since)

let find_or_compute ~key compute =
  let ks = Cache_key.to_string key in
  let cached =
    locked (fun () ->
        match Hashtbl.find_opt table ks with
        | Some r ->
          stats_ref := hit !stats_ref;
          Some r
        | None -> None)
  in
  match cached with
  | Some r ->
    count_here hit;
    Tel.Counter.incr c_hits;
    r
  | None -> (
    (* Disk probe outside the table lock: file IO must not serialize
       the other workers. *)
    match disk_load key with
    | Some r ->
      Tel.Counter.incr c_disk_hits;
      count_here disk_hit;
      locked (fun () ->
          stats_ref := disk_hit !stats_ref;
          Hashtbl.replace table ks r);
      r
    | None ->
      Tel.Counter.incr c_misses;
      count_here miss;
      locked (fun () -> stats_ref := miss !stats_ref);
      let r = compute () in
      count_here store;
      locked (fun () ->
          stats_ref := store !stats_ref;
          Hashtbl.replace table ks r);
      disk_store key r;
      r)
