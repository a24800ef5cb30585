(** Domain-safe, two-tier cache of simulation results.

    Tier 1 is an in-process mutex-guarded table; tier 2 is an optional
    persistent store (one JSON file per entry under a directory chosen
    with {!set_dir}, conventionally [_cinnamon_cache/]), letting
    repeated bench runs skip re-simulation across processes.  Files are
    named by the {!Cache_key} digest and embed the full key plus a
    schema tag, both verified on load — collisions and stale formats
    degrade to misses, never wrong results. *)

type stats = {
  hits : int;  (** in-memory tier hits *)
  misses : int;  (** entries that had to be computed *)
  disk_hits : int;  (** persistent-tier hits (warm process start) *)
  stores : int;  (** computed results inserted *)
}

(** Enable ([Some dir]) or disable ([None], the default) the
    persistent tier.  The directory is created on first store. *)
val set_dir : string option -> unit

val dir : unit -> string option

(** Drop the in-memory tier (the persistent tier is untouched). *)
val clear_memory : unit -> unit

(** Process-wide counts: the sum over every domain's lookups since the
    last {!reset_stats}. *)
val stats : unit -> stats

val reset_stats : unit -> unit

(** [diff a ~since] is [a - since], field by field: the lookups made
    between two snapshots of {!stats}. *)
val diff : stats -> since:stats -> stats

(** [counted f] runs [f ()] and returns its result with the lookups
    made {e on the calling domain} while it ran.  Each domain keeps its
    own counts beside the process-wide ones, so a fleet replay run as
    one pool job, which makes every lookup on its own domain, gets
    exactly its own counts even while other replays run beside it. *)
val counted : (unit -> 'a) -> 'a * stats

(** [find_or_compute ~key f] returns the cached result for [key] or
    runs [f] (outside any lock) and caches its result in both tiers.
    Safe to call from pool workers; concurrent misses on one key may
    compute twice, converging on the same deterministic result. *)
val find_or_compute : key:Cache_key.t -> (unit -> Cinnamon_sim.Simulator.result) -> Cinnamon_sim.Simulator.result
