(* Global telemetry sink: spans, counters and caller-stamped events,
   exported as Chrome trace-event JSON or a plain-text report.

   Disabled by default; every entry point short-circuits on [on] so the
   instrumented hot paths (the simulator issue loop in particular) pay
   one boolean load when tracing is off.

   Domain-safe: the shared sink (event buffer, span aggregates,
   counters) is guarded by one mutex, while span stacks are per-domain
   (Domain.DLS) so concurrent compile/simulate jobs nest their spans
   independently; every domain's spans land in the shared buffer and
   are merged at export.  Wall spans carry their domain id as the trace
   tid, so parallel work renders as separate rows under pid 0. *)

type arg = Int of int | Float of float | Str of string

type phase = Complete | Instant | Metadata

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float; (* microseconds (wall spans) or cycles (simulator) *)
  ev_dur : float;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * arg) list;
}

let on = ref false
let enabled () = !on
let enable () = on := true
let disable () = on := false

(* One lock serializes every mutation of the shared sink.  Uncontended
   Mutex.lock is cheap, and nothing below it blocks. *)
let sink_mutex = Mutex.create ()

let with_sink f =
  Mutex.lock sink_mutex;
  match f () with
  | v ->
    Mutex.unlock sink_mutex;
    v
  | exception e ->
    Mutex.unlock sink_mutex;
    raise e

(* Recorded events, newest first. *)
let events : event list ref = ref []
let n_events = ref 0

let record ev =
  with_sink (fun () ->
      events := ev :: !events;
      incr n_events)

let event_count () = !n_events

(* Span aggregates for the text report: name -> (count, total_us). *)
let span_totals : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32

(* The wall clock is injectable so tests can model a clock that steps
   backwards (NTP adjustment, VM migration); span durations are clamped
   at >= 0 when recorded, so aggregates and traces never go negative. *)
let clock_us : (unit -> float) option ref = ref None

let set_clock_us f = clock_us := f

let now_us () =
  match !clock_us with Some f -> f () | None -> Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------- spans *)

module Span = struct
  type frame = { f_name : string; f_cat : string; f_t0 : float; mutable f_args : (string * arg) list }

  (* Per-domain span stacks: nesting is a property of one domain's call
     tree, so concurrent jobs each get their own stack (merged into the
     shared event buffer when frames close). *)
  let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

  let stack () = Domain.DLS.get stack_key

  let add_args args =
    if !on then
      match !(stack ()) with
      | [] -> ()
      | f :: _ -> f.f_args <- f.f_args @ args

  let with_ ?(cat = "compile") ?(args = []) name f =
    if not !on then f ()
    else begin
      let stack = stack () in
      let tid = (Domain.self () :> int) in
      let frame = { f_name = name; f_cat = cat; f_t0 = now_us (); f_args = args } in
      stack := frame :: !stack;
      let finish () =
        (match !stack with _ :: rest -> stack := rest | [] -> ());
        (* clamp: a backwards-stepping wall clock must not record a
           negative duration *)
        let dur = Float.max 0.0 (now_us () -. frame.f_t0) in
        with_sink (fun () ->
            events :=
              {
                ev_name = name;
                ev_cat = frame.f_cat;
                ev_ph = Complete;
                ev_ts = frame.f_t0;
                ev_dur = dur;
                ev_pid = 0;
                ev_tid = tid;
                ev_args = frame.f_args;
              }
              :: !events;
            incr n_events;
            let count, total =
              match Hashtbl.find_opt span_totals name with
              | Some ct -> ct
              | None ->
                let ct = (ref 0, ref 0.0) in
                Hashtbl.add span_totals name ct;
                ct
            in
            incr count;
            total := !total +. dur)
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end
end

(* ---------------------------------------------------------- counters *)

module Counter = struct
  type t = { c_name : string; c_cat : string; mutable c_value : int }

  (* registration order preserved for the report *)
  let registry : t list ref = ref []

  let make ?(cat = "misc") name =
    let c = { c_name = name; c_cat = cat; c_value = 0 } in
    with_sink (fun () -> registry := c :: !registry);
    c

  (* Read-modify-write under the sink lock so parallel jobs never lose
     increments. *)
  let add c n = if !on then with_sink (fun () -> c.c_value <- c.c_value + n)
  let incr c = add c 1
  let value c = c.c_value
end

let reset () =
  with_sink (fun () ->
      events := [];
      n_events := 0;
      Hashtbl.reset span_totals;
      List.iter (fun c -> c.Counter.c_value <- 0) !Counter.registry);
  Span.stack () := []

(* ------------------------------------------------ virtual-time events *)

let emit_complete ?(cat = "sim") ?(args = []) ~pid ~tid ~ts ~dur name =
  if !on then
    record
      { ev_name = name; ev_cat = cat; ev_ph = Complete; ev_ts = ts; ev_dur = dur; ev_pid = pid;
        ev_tid = tid; ev_args = args }

let emit_instant ?(cat = "sim") ?(args = []) ~pid ~tid ~ts name =
  if !on then
    record
      { ev_name = name; ev_cat = cat; ev_ph = Instant; ev_ts = ts; ev_dur = 0.0; ev_pid = pid;
        ev_tid = tid; ev_args = args }

let metadata ~pid ~tid meta_name display =
  if !on then
    record
      { ev_name = meta_name; ev_cat = "__metadata"; ev_ph = Metadata; ev_ts = 0.0; ev_dur = 0.0;
        ev_pid = pid; ev_tid = tid; ev_args = [ ("name", Str display) ] }

let name_process ~pid display = metadata ~pid ~tid:0 "process_name" display
let name_thread ~pid ~tid display = metadata ~pid ~tid "thread_name" display

(* -------------------------------------------------------- JSON export *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let event_json buf ev =
  let ph = match ev.ev_ph with Complete -> "X" | Instant -> "i" | Metadata -> "M" in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f" (json_escape ev.ev_name)
       (json_escape ev.ev_cat) ph ev.ev_ts);
  if ev.ev_ph = Complete then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" ev.ev_dur);
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" ev.ev_pid ev.ev_tid);
  (match ev.ev_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v)))
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let write_chrome_trace file =
  let oc = open_out file in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  (* Snapshot under the lock; the list itself is immutable. *)
  let evs = List.rev (with_sink (fun () -> !events)) in
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      event_json buf ev;
      if Buffer.length buf > 1 lsl 20 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    evs;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc buf;
  close_out oc

(* -------------------------------------------------------- text report *)

let report () =
  let buf = Buffer.create 1024 in
  let spans =
    with_sink (fun () ->
        Hashtbl.fold (fun name (count, total) acc -> (name, !count, !total) :: acc) span_totals [])
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  if spans <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-32s %8s %12s %12s\n" "span" "count" "total ms" "mean ms");
    List.iter
      (fun (name, count, total_us) ->
        Buffer.add_string buf
          (Printf.sprintf "%-32s %8d %12.3f %12.3f\n" name count (total_us /. 1e3)
             (total_us /. 1e3 /. Float.of_int (max 1 count))))
      spans
  end;
  let counters = List.filter (fun c -> c.Counter.c_value <> 0) (List.rev !Counter.registry) in
  if counters <> [] then begin
    if spans <> [] then Buffer.add_char buf '\n';
    Buffer.add_string buf (Printf.sprintf "%-44s %16s\n" "counter" "value");
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "%-44s %16d\n"
             (Printf.sprintf "%s.%s" c.Counter.c_cat c.Counter.c_name)
             c.Counter.c_value))
      counters
  end;
  Buffer.contents buf
