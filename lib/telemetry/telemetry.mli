(** Tracing and metrics for the Cinnamon toolchain.

    A single global sink collects three kinds of data:

    - {b spans} — hierarchical wall-clock timers around compiler passes
      and runner segments ({!Span.with_});
    - {b counters} — named monotonic integers (cache hits, batches
      formed, bytes saved) ({!Counter});
    - {b virtual-time events} — intervals stamped by the caller rather
      than the wall clock, used by the cycle simulator to emit per-chip,
      per-functional-unit busy timelines ({!emit_complete}).

    The sink is {b disabled by default} and everything short-circuits on
    one boolean load, so instrumented code pays no measurable cost until
    {!enable} is called (the CLI's [--trace]/[--metrics] flags do this).

    The sink is {b domain-safe}: the shared event buffer, span
    aggregates and counters are mutex-guarded, and span stacks are
    per-domain (so jobs running on a {!Cinnamon_exec.Pool} nest their
    spans independently and merge into one trace at export).  Wall
    spans carry their domain id as the trace [tid].

    Two exporters: {!write_chrome_trace} produces Chrome trace-event
    JSON loadable in [chrome://tracing] or Perfetto (wall-clock spans
    live on pid 0; simulator events on pid [1+chip] with one cycle
    rendered as one microsecond), and {!report} renders a plain-text
    table of span totals and counter values. *)

(** {1 Sink control} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Drop all recorded events, span aggregates and counter values
    (counters themselves stay registered). *)
val reset : unit -> unit

(** Override the sink's microsecond wall clock ([None], the default,
    restores [Unix.gettimeofday]).  For tests: span durations are
    clamped at [>= 0] when recorded, so a clock stepping backwards
    between a span's start and end can never produce a negative
    duration. *)
val set_clock_us : (unit -> float) option -> unit

(** Argument payload attached to events ([args] in the trace JSON). *)
type arg = Int of int | Float of float | Str of string

(** {1 Spans} *)

module Span : sig
  (** [with_ name f] times [f] and records a trace event named [name],
      nested under any enclosing span (same pid/tid: Chrome renders the
      hierarchy from interval containment).  When the sink is disabled
      this is exactly [f ()]. *)
  val with_ : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

  (** Attach arguments to the innermost open span — for quantities only
      known once the spanned work has run (op counts out, batches
      formed).  No-op when disabled or outside any span. *)
  val add_args : (string * arg) list -> unit
end

(** {1 Counters} *)

module Counter : sig
  type t

  (** Registers the counter with the global sink; typically called once
      at module initialization. *)
  val make : ?cat:string -> string -> t

  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

(** {1 Virtual-time events}

    For the simulator: the caller supplies the timestamp and duration in
    its own time base (cycles).  [pid]/[tid] select the trace row —
    simulator convention is [pid = 1 + chip], [tid] = functional-unit
    class. *)

val emit_complete :
  ?cat:string ->
  ?args:(string * arg) list ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  string ->
  unit

val emit_instant :
  ?cat:string -> ?args:(string * arg) list -> pid:int -> tid:int -> ts:float -> string -> unit

(** Metadata events naming a trace process/thread row. *)
val name_process : pid:int -> string -> unit

val name_thread : pid:int -> tid:int -> string -> unit

(** {1 Exporters} *)

(** Number of events currently recorded. *)
val event_count : unit -> int

(** Write all recorded events as Chrome trace-event JSON
    ([{"traceEvents": [...]}]) to [file]. *)
val write_chrome_trace : string -> unit

(** Plain-text report: span table (count, total, mean) and all non-zero
    counters, grouped by category. *)
val report : unit -> string
