(* Bounded admission queue with typed rejection.

   The queue is kept sorted in dispatch order (priority class, then
   FIFO), so the batcher's head-of-line choice is O(1) and admission is
   O(depth) — fine at serving-simulator scale, where depth is bounded
   by [capacity].  The depth itself is a field, kept by every call
   that changes the list: the router reads it on every arrival.  Every
   way a request can fail to be served from here is a value ([error] on
   admission, the [shed_expired] return for queued requests whose
   deadline passed): nothing is silently dropped. *)

type error =
  | Queue_full of { capacity : int }
  | Expired of { deadline_s : float; now_s : float }
  | Closed
  | Fleet_full
  | Tenant_unavailable of { tenant : Cinnamon_tenant.Tenant_id.t; reason : string }

let error_to_string = function
  | Queue_full { capacity } -> Printf.sprintf "queue full (capacity %d)" capacity
  | Expired { deadline_s; now_s } ->
    Printf.sprintf "deadline %.6fs already expired at admission (now %.6fs)" deadline_s now_s
  | Closed -> "server draining: admission closed"
  | Fleet_full -> "fleet backpressure: no active node"
  | Tenant_unavailable { tenant; reason } ->
    Printf.sprintf "tenant %s unavailable: %s" (Cinnamon_tenant.Tenant_id.to_string tenant) reason

type t = {
  capacity : int;
  mutable items : Request.t list; (* sorted by Request.compare_order *)
  mutable depth : int; (* List.length items *)
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1";
  { capacity; items = []; depth = 0; closed = false }

let capacity t = t.capacity
let depth t = t.depth
let is_empty t = t.items = []
let close t = t.closed <- true
let is_closed t = t.closed

let admit t ~now_s (r : Request.t) =
  if t.closed then Error Closed
  else if Request.expired r ~now_s then
    Error (Expired { deadline_s = r.Request.req_deadline_s; now_s })
  else if t.depth >= t.capacity then Error (Queue_full { capacity = t.capacity })
  else begin
    let rec ins = function
      | [] -> [ r ]
      | x :: rest as l -> if Request.compare_order r x < 0 then r :: l else x :: ins rest
    in
    t.items <- ins t.items;
    t.depth <- t.depth + 1;
    Ok ()
  end

let rec any_expired now_s = function
  | [] -> false
  | r :: rest -> Request.expired r ~now_s || any_expired now_s rest

(* The fleet loop sheds every node at every step, and almost always
   nothing has expired: then the queue is left as it is. *)
let shed_expired t ~now_s =
  if not (any_expired now_s t.items) then []
  else begin
    let expired, keep = List.partition (fun r -> Request.expired r ~now_s) t.items in
    t.items <- keep;
    t.depth <- t.depth - List.length expired;
    expired
  end

let queued t = t.items

let peek t = match t.items with [] -> None | r :: _ -> Some r

(* Remove (in queue order) up to [limit] requests satisfying [pred]. *)
let take t pred ~limit =
  if limit < 1 then []
  else begin
    let taken = ref 0 in
    let keep, out =
      List.fold_left
        (fun (keep, out) r ->
          if !taken < limit && pred r then begin
            incr taken;
            (keep, r :: out)
          end
          else (r :: keep, out))
        ([], []) t.items
    in
    t.items <- List.rev keep;
    t.depth <- t.depth - !taken;
    List.rev out
  end
