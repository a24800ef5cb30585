(** Typed diagnostics for user-facing failure paths.

    Entry points raise {!Error} with a {!kind} instead of bare
    [Failure]/[Invalid_argument]; the CLI maps each kind to a distinct
    exit code under a uniform ["error:"] prefix (see {!guard}). *)

type kind =
  | Invalid_input  (** malformed request / inconsistent configuration — exit 2 *)
  | Unknown_name  (** registry lookup missed — exit 3 *)
  | Capacity  (** hardware resource cannot fit the job — exit 4 *)
  | Verification  (** the IR verifier found violations — exit 5 *)
  | Internal  (** toolchain invariant broke — exit 70 (EX_SOFTWARE) *)

type t = { kind : kind; message : string }

exception Error of t

val make : kind -> string -> t
val message : t -> string
val kind : t -> kind

(** Stable lowercase label, e.g. ["invalid-input"]. *)
val kind_name : kind -> string

(** Process exit code for the kind: 2, 3, 4, 5, 70. *)
val exit_code : kind -> int

(** ["<kind-name>: <message>"]. *)
val to_string : t -> string

val fail : kind -> string -> 'a
val failf : kind -> ('a, unit, string, 'b) format4 -> 'a

(** Run a CLI body: on {!Error} (or a legacy [Invalid_argument]
    precondition) print ["error: <message>"] to stderr and return the
    kind's exit code; otherwise return the body's code. *)
val guard : (unit -> int) -> int

(** {1 Did-you-mean}  *)

(** Nearest candidate by (case-insensitive) edit distance when close
    enough to be a plausible typo; [None] otherwise. *)
val suggest : candidates:string list -> string -> string option
