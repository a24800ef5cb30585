(* Domain-local scratch-buffer arena on Limb_buf slabs.

   Base conversion and the keyswitch inner loop need short-lived limb
   buffers of a handful of distinct lengths (the ring dimension,
   mostly) on every call; allocating them fresh keeps malloc churning
   at N = 2^16.  The arena keeps a small free list of SLABS per
   power-of-two capacity class, keyed per domain via Domain.DLS — each
   domain of the lib/exec pool gets its own pool, so borrowing and
   releasing never synchronizes and is race-free by construction.

   Loans are exact-length views cut from a slab at loan time.  The
   pool only ever stores and indexes whole slabs by their own
   capacity, so a loan can never observe another request's length —
   the shape confusion the old exact-length free lists allowed (a
   buffer filed under one length bucket being handed to a request for
   another after an interleaved resize) is structurally impossible.

   Borrowed buffers are NOT zeroed: callers must fully initialize
   every element they read. *)

(* Cap per (domain, capacity class) so a burst can't pin memory forever. *)
let max_pooled = 32

type pool = (int, Limb_buf.t list ref) Hashtbl.t

let dls_key : pool Domain.DLS.key = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let capacity_of n =
  let c = ref 64 in
  while !c < n do
    c := !c * 2
  done;
  !c

let borrow_slab cap =
  let pool = Domain.DLS.get dls_key in
  match Hashtbl.find_opt pool cap with
  | Some ({ contents = slab :: rest } as cell) ->
      cell := rest;
      slab
  | _ -> Limb_buf.create cap

let release_slab slab =
  let pool = Domain.DLS.get dls_key in
  let cap = Limb_buf.length slab in
  let cell =
    match Hashtbl.find_opt pool cap with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add pool cap c;
        c
  in
  if List.length !cell < max_pooled then cell := slab :: !cell

let with_buf ~n f =
  let slab = borrow_slab (capacity_of n) in
  let view = if Limb_buf.length slab = n then slab else Limb_buf.sub slab ~pos:0 ~len:n in
  Fun.protect ~finally:(fun () -> release_slab slab) (fun () -> f view)

(* One slab for all [count] buffers: the loans are disjoint
   consecutive views, so a multi-buffer working set is also one
   contiguous block (cache-friendly column walks in Base_conv). *)
let with_bufs ~n ~count f =
  let slab = borrow_slab (capacity_of (n * count)) in
  let views = Array.init count (fun i -> Limb_buf.sub slab ~pos:(i * n) ~len:n) in
  Fun.protect ~finally:(fun () -> release_slab slab) (fun () -> f views)

(* Cache-tile sizing for fused kernels.  A loop that streams [streams]
   concurrent Limb_buf ranges (accumulators, an extension column, key
   limbs...) and wants the working set resident picks the largest
   power-of-two coefficient count such that streams * len * 8 bytes
   fits the budget — 512 KiB, a conservative per-core L2
   share.  Clamped to [64, n]: below 64 elements the loop bookkeeping
   dominates any locality win, and a tile never exceeds one limb.
   Centralized here so every fused call site shares one definition of
   "L2-sized" instead of re-deriving it. *)
let tile_budget_bytes = 512 * 1024

let tile_len ~streams ~n () =
  if streams <= 0 then invalid_arg "Scratch.tile_len: streams must be positive";
  let budget_elems = max 64 (tile_budget_bytes / (8 * streams)) in
  let len = ref 64 in
  while 2 * !len <= budget_elems && 2 * !len <= n do
    len := 2 * !len
  done;
  min !len n

(* Tile-granularity loan: [count] buffers sized by {!tile_len} for a
   working set of [streams] concurrent ranges over rings of dimension
   [n].  The usual case is count = streams, but callers that keep some
   streams in caller-owned storage (e.g. accumulator slabs) can borrow
   fewer. *)
let with_tiles ~streams ~n ~count f =
  let len = tile_len ~streams ~n () in
  with_bufs ~n:len ~count (fun views -> f ~tile:len views)
