(* Read-modify-write of one top-level section of BENCH_cinnamon.json.
   Several subcommands each own one section of the same artifact, so
   every write keeps the other sections and publishes the way the
   result cache publishes its entries: a private temp file next to the
   target, then a rename over it. *)

module Json = Cinnamon_util.Json

let schema = "cinnamon-bench-v1"

let read_fields file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> ( match Json.of_string s with Ok (Json.Obj kvs) -> kvs | _ -> [])
  | exception Sys_error _ -> []

let merge_section ~file key f =
  let existing = read_fields file in
  let tag = Option.value (List.assoc_opt "schema" existing) ~default:(Json.Str schema) in
  let rest = List.filter (fun (k, _) -> k <> "schema" && k <> key) existing in
  let doc = Json.Obj (("schema", tag) :: (key, f (List.assoc_opt key existing)) :: rest) in
  let tmp = Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ()) (Domain.self () :> int) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Sys.rename tmp file
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
