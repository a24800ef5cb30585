(* An encrypted-inference request: which workload to run on which
   system, when it arrived, how urgent it is, and by when it must
   finish.  Workload and system are registry NAMES (resolved by the
   executor through Specs/Runner), so a request is a plain value the
   admission queue and batcher can order and group without touching the
   compiler.  All times are virtual seconds on the serving clock. *)

module CC = Cinnamon_compiler.Compile_config
module Tenant_id = Cinnamon_tenant.Tenant_id
module Epoch = Cinnamon_tenant.Epoch

type priority = High | Normal | Low

let priority_rank = function High -> 0 | Normal -> 1 | Low -> 2

type t = {
  req_id : int;
  req_bench : string; (* benchmark registry name *)
  req_system : string; (* system registry name *)
  req_config : CC.t; (* compile configuration the inference runs under *)
  req_priority : priority;
  req_arrival_s : float; (* virtual arrival time *)
  req_deadline_s : float; (* absolute virtual deadline; infinity = none *)
  req_tenant : Tenant_id.t; (* whose key material serves this request *)
  req_epoch : Epoch.t; (* key epoch bound at admission (Fleet stamps it) *)
  (* bench|system|md5(config_sig): the compiled program's identity,
     rendered once here so the batcher, the router and the key caches
     compare it instead of re-rendering the configuration *)
  req_program : string;
}

(* [req_program] of one (bench, system, config), rendered once per
   distinct triple: a trace makes a request per arrival but draws them
   from a handful of programs, and a rendering costs a Printf of the
   whole configuration and an MD5.  Requests are made on any domain,
   hence a Memo. *)
let programs : (string * string * CC.t, string) Cinnamon_util.Memo.t =
  Cinnamon_util.Memo.create ()

let render_program bench system config () =
  String.concat "|"
    [ bench; system; Digest.to_hex (Digest.string (Cinnamon_exec.Cache_key.config_sig config)) ]

let make ?config ?(priority = Normal) ?(deadline_s = infinity) ?(tenant = Tenant_id.default)
    ?(epoch = Epoch.zero) ~id ~bench ~system ~arrival_s () =
  if arrival_s < 0.0 || Float.is_nan arrival_s then
    invalid_arg "Request.make: arrival time must be >= 0";
  if Float.is_nan deadline_s then invalid_arg "Request.make: deadline must not be nan";
  let config = match config with Some c -> c | None -> CC.paper () in
  {
    req_id = id;
    req_bench = bench;
    req_system = system;
    req_config = config;
    req_priority = priority;
    req_arrival_s = arrival_s;
    req_deadline_s = deadline_s;
    req_tenant = tenant;
    req_epoch = epoch;
    req_program =
      Cinnamon_util.Memo.get programs (bench, system, config) (render_program bench system config);
  }

(* Admission-time epoch binding: the fleet stamps the epoch its key
   store leased, and the request keeps it for life — a rotation that
   starts later never rebinds in-flight work. *)
let with_epoch r epoch = { r with req_epoch = epoch }

(* CKKS slot count of the request's ring: the hard cap on how many
   inferences one ciphertext batch can pack. *)
let slots r = 1 lsl max 0 (r.req_config.CC.log_n - 1)

let expired r ~now_s = r.req_deadline_s < now_s

(* Dispatch order: priority class first, then FIFO within a class
   (arrival, then id as the deterministic tiebreak). *)
let compare_order a b =
  match compare (priority_rank a.req_priority) (priority_rank b.req_priority) with
  | 0 -> (
    match Float.compare a.req_arrival_s b.req_arrival_s with
    | 0 -> compare a.req_id b.req_id
    | c -> c)
  | c -> c
