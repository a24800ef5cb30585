(** Name → artifact registries with uniform unknown-name errors.

    [make ~what entries] builds a registry whose failed lookups render
    ["unknown <what> \"name\"; known <what>s: a, b, c"], with a
    did-you-mean hint ({!Error.suggest}) when the miss is a plausible
    typo of a registered name.  [extra] names
    appear in that listing without being resolvable here — used for
    parametric families (e.g. ["matvec-<n>"]) whose parsing lives with
    the caller. *)

type 'a t

val make : ?extra:string list -> what:string -> (string * 'a) list -> 'a t

(** The entries, in registration order. *)
val entries : 'a t -> (string * 'a) list

val names : 'a t -> string list

val find : 'a t -> string -> ('a, string) result
val mem : 'a t -> string -> bool
