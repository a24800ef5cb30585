(** ASCII tables and bar charts used by the bench harness to regenerate
    the paper's tables and figures as text. *)

type align = Left | Right
type t

(** [create ~title ~header ?aligns ()] starts an empty table. [aligns]
    defaults to all-[Right]. *)
val create : title:string -> header:string list -> ?aligns:align list -> unit -> t

(** Append a row; its width must match the header. *)
val add_row : t -> string list -> unit

val render : t -> string
val print : t -> unit

val print_bar_chart : title:string -> unit:string -> ?width:int -> (string * float) list -> unit

(** Human-readable duration (us/ms/s/min/h). *)
val fmt_time : float -> string

val fmt_float : ?digits:int -> float -> string

(** "2.31x" style ratio. *)
val fmt_ratio : float -> string

val fmt_bytes : int -> string
