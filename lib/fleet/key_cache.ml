(* Per-node warm-key cache: which (tenant, epoch, compiled-program) key
   sets are resident in a node's HBM right now.

   Entries are typed — a tenant id, a key epoch, and the batch
   compatibility digest — instead of the opaque strings the first fleet
   cut used, and capacity is byte-weighted: a resident entry costs its
   modeled key-set bytes against [capacity_bytes], so one BERT-sized
   tenant can evict three small ones, exactly the arithmetic a real HBM
   budget does.  Replacement stays MRU-list LRU-eviction — real
   deployments keep a handful of multi-GB key sets resident, so the
   resident list is short and a list beats any clever structure.

   An entry larger than the whole budget can never become resident:
   every dispatch streams it through HBM and counts a miss.  (The
   previous string cache silently "inserted" such an entry and then
   evicted it while inserting, so a one-slot cache thrashing between
   two keys under-counted the reload traffic; the [oversized]/[fits]
   split pins the corrected accounting, see test_tenant.)

   Hit/miss/byte counters feed the per-policy hit-rate and key-load
   penalty comparison in the fleet and tenant benches. *)

module Tenant_id = Cinnamon_tenant.Tenant_id
module Epoch = Cinnamon_tenant.Epoch

type entry = {
  en_tenant : Tenant_id.t;
  en_epoch : Epoch.t;
  en_compat : string; (* batch compatibility digest (program identity) *)
}

let entry_of_request (r : Cinnamon_serve.Request.t) =
  {
    en_tenant = r.Cinnamon_serve.Request.req_tenant;
    en_epoch = r.Cinnamon_serve.Request.req_epoch;
    en_compat = Cinnamon_serve.Batcher.compat_key r;
  }

let entry_equal a b =
  Tenant_id.equal a.en_tenant b.en_tenant
  && Epoch.equal a.en_epoch b.en_epoch
  && String.equal a.en_compat b.en_compat

let entry_to_string e =
  Printf.sprintf "%s/%s/%s" (Tenant_id.to_string e.en_tenant) (Epoch.to_string e.en_epoch)
    e.en_compat

type t = {
  capacity_bytes : int;
  mutable resident : (entry * int) list; (* (entry, bytes), MRU first *)
  mutable hits : int;
  mutable misses : int;
  mutable loaded_bytes : int; (* total bytes streamed in on misses *)
  mutable evictions : int;
}

let create ~capacity_bytes =
  if capacity_bytes < 1 then invalid_arg "Key_cache.create: capacity_bytes must be >= 1";
  { capacity_bytes; resident = []; hits = 0; misses = 0; loaded_bytes = 0; evictions = 0 }

let resident_bytes t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.resident

(* Peek for routing decisions: no promotion, no counter movement — the
   router asking "where is this key warm?" must not perturb the cache
   state the dispatch path accounts against. *)
let mem t entry = List.exists (fun (e, _) -> entry_equal e entry) t.resident

(* The dispatch path: promote on hit; on a miss, stream the entry in
   (count its bytes) and evict LRU entries until it fits.  An entry
   that can NEVER fit is not inserted at all — each touch is a full
   reload, so repeated dispatches keep counting misses instead of
   pretending the set became resident.  Returns [true] iff already
   resident. *)
let touch t entry ~bytes =
  if bytes < 0 then invalid_arg "Key_cache.touch: bytes must be >= 0";
  if mem t entry then begin
    t.hits <- t.hits + 1;
    let resident_entry, rest =
      List.partition (fun (e, _) -> entry_equal e entry) t.resident
    in
    t.resident <- resident_entry @ rest;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.loaded_bytes <- t.loaded_bytes + bytes;
    if bytes <= t.capacity_bytes then begin
      (* evict from the LRU end until the newcomer fits *)
      let rec evict () =
        if resident_bytes t + bytes > t.capacity_bytes then begin
          match List.rev t.resident with
          | [] -> ()
          | (lru, _) :: _ ->
            t.resident <- List.filter (fun (e, _) -> not (entry_equal e lru)) t.resident;
            t.evictions <- t.evictions + 1;
            evict ()
        end
      in
      evict ();
      t.resident <- (entry, bytes) :: t.resident
    end;
    false
  end

let hits t = t.hits
let misses t = t.misses
let loaded_bytes t = t.loaded_bytes
let evictions t = t.evictions
let resident t = List.map fst t.resident
