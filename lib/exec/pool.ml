(* Domain-based job pool with a bounded work queue.

   Workers are OCaml 5 domains pulling thunks off a mutex/condition
   queue; submission blocks once [queue_capacity] jobs are waiting, so
   a producer enumerating a large sweep cannot run arbitrarily far
   ahead of execution.  [map] writes each result into its input slot,
   making result ordering deterministic regardless of completion order.

   When the pool is created with one job (explicitly, or because
   [Domain.recommended_domain_count () = 1]) no domains are spawned and
   everything runs sequentially in the caller — the degenerate pool is
   exactly [List.map].  A one-element map runs in the caller on any
   pool. *)

type job = Job of (unit -> unit) | Stop

type t = {
  jobs : int; (* worker count; 1 = sequential, no domains *)
  queue : job Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

let default_jobs () = Domain.recommended_domain_count ()

(* 0 means "let the machine decide"; negative counts are a caller bug
   (the CLIs validate before this, but the guard catches programmatic
   misuse too). *)
let resolve_jobs jobs =
  if jobs < 0 then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be >= 1 (or 0 for the default), got %d" jobs)
  else if jobs = 0 then default_jobs ()
  else jobs

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.not_empty t.mutex
    done;
    let next = if Queue.is_empty t.queue then Stop else Queue.pop t.queue in
    Condition.signal t.not_full;
    Mutex.unlock t.mutex;
    match next with
    | Stop -> ()
    | Job f ->
      f ();
      loop ()
  in
  loop ()

let create ?(queue_capacity = 128) ~jobs () =
  let jobs = resolve_jobs jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      capacity = max 1 queue_capacity;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      workers = [];
      stopped = false;
    }
  in
  if jobs > 1 then t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let submit t f =
  Mutex.lock t.mutex;
  while Queue.length t.queue >= t.capacity do
    Condition.wait t.not_full t.mutex
  done;
  Queue.push (Job f) t.queue;
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

type 'b slot = Pending | Ok_ of 'b | Err of exn * Printexc.raw_backtrace

let map t f xs =
  if t.jobs = 1 then List.map f xs
  else
    match xs with
    | [] -> []
    | [ x ] ->
      (* nothing to overlap with: a worker round trip would only add
         two hand-offs to the job's own time *)
      [ f x ]
    | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n Pending in
      let remaining = ref n in
      let all_done = Condition.create () in
      for i = 0 to n - 1 do
        submit t (fun () ->
            let r =
              match f arr.(i) with
              | v -> Ok_ v
              | exception e -> Err (e, Printexc.get_raw_backtrace ())
            in
            Mutex.lock t.mutex;
            results.(i) <- r;
            decr remaining;
            if !remaining = 0 then Condition.broadcast all_done;
            Mutex.unlock t.mutex)
      done;
      Mutex.lock t.mutex;
      while !remaining > 0 do
        Condition.wait all_done t.mutex
      done;
      Mutex.unlock t.mutex;
      (* Re-raise the first failure by input position, as sequential
         execution would. *)
      Array.to_list
        (Array.map
           (function
             | Ok_ v -> v
             | Err (e, bt) -> Printexc.raise_with_backtrace e bt
             | Pending -> assert false)
           results)

let run ?(jobs = 0) f xs =
  let t = create ~jobs () in
  match map t f xs with
  | r ->
    shutdown t;
    r
  | exception e ->
    shutdown t;
    raise e
