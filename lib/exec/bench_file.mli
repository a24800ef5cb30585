(** The [BENCH_cinnamon.json] perf artifact, updated one top-level
    section at a time by the CLI subcommands that own a section
    ([serve_loadtest], [serve_fleet], [tenant_serving]). *)

(** The schema tag every artifact starts with. *)
val schema : string

(** [merge_section ~file key f] sets the top-level [key] of [file] to
    [f old], where [old] is the key's current value, if any.  Every
    other key is kept in its order; ["schema"] stays first (inserted
    when missing) and [key] follows it.  A missing, unreadable or
    non-object file counts as empty.  The new document is written to a
    temp file next to [file] and renamed over it, so a reader never
    sees a truncated artifact. *)
val merge_section :
  file:string -> string -> (Cinnamon_util.Json.t option -> Cinnamon_util.Json.t) -> unit
