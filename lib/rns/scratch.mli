(** Domain-local scratch-buffer arena on {!Limb_buf} slabs.

    Reusable slabs pooled per domain (Domain.DLS) by power-of-two
    capacity; loans are exact-length views cut at loan time, so a loan
    always has precisely the requested length whatever lengths other
    callers used.  Buffers are {e not} zeroed on loan — callers must
    fully initialize every element they read. *)

val with_buf : n:int -> (Limb_buf.t -> 'a) -> 'a
(** [with_buf ~n f] loans a buffer of exactly [n] elements to [f] and
    returns its slab to the domain-local pool afterwards (also on
    exception).  The buffer must not escape [f]. *)

val with_bufs : n:int -> count:int -> (Limb_buf.t array -> 'a) -> 'a
(** Loan [count] distinct buffers of [n] elements each, cut
    consecutively from one slab.  They must not escape [f]. *)

val tile_len : streams:int -> n:int -> unit -> int
(** Cache-tile size for fused kernels: the largest power-of-two
    coefficient count such that [streams] concurrent Limb_buf ranges
    of that length fit 512 KiB (a conservative per-core L2 share),
    clamped to [64, n].  Centralized
    so every fused call site shares one definition of "L2-sized"
    instead of re-deriving it. *)

val with_tiles : streams:int -> n:int -> count:int -> (tile:int -> Limb_buf.t array -> 'a) -> 'a
(** Tile-granularity {!with_bufs}: loan [count] buffers of
    [tile_len ~streams ~n] elements each and pass the chosen tile
    length to [f].  They must not escape [f]. *)
