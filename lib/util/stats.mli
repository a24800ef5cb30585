(** Summary statistics for the bench harness and tests. *)

val mean : float list -> float

(** Geometric mean; inputs must be positive. *)
val geomean : float list -> float

val minimum : float list -> float
val maximum : float list -> float

(** Sample standard deviation. *)
val stddev : float list -> float

(** [percentile ~p xs] is the nearest-rank percentile of [xs] (computed
    on a sorted copy): the smallest element with at least
    [ceil (p/100 * n)] values at or below it.  [p] must lie in
    [\[0, 100\]]; the empty list yields [nan]. *)
val percentile : p:float -> float list -> float

(** Fixed-bucket streaming histogram with geometrically spaced buckets,
    used for latency distributions: O(buckets) memory however many
    samples stream through, with quantiles interpolated inside the
    selected bucket and clamped to the observed min/max. *)
module Histogram : sig
  type t

  (** [make ~lo ~hi ()] spans [(0, hi]] with 512 geometric buckets
      between [lo] and [hi]; samples outside [\[lo, hi\]] clamp into
      the edge buckets.  Requires [0 < lo < hi]. *)
  val make : lo:float -> hi:float -> unit -> t

  (** Record one sample.  Rejects [nan]. *)
  val add : t -> float -> unit

  val count : t -> int
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  (** [merge_into ~dst src] adds [src]'s samples into [dst] (bucket
      counts, totals and observed range).  Raises [Invalid_argument]
      unless both histograms share the same bucket geometry. *)
  val merge_into : dst:t -> t -> unit

  (** [quantile t q] for [q] in [\[0, 1\]]: nearest-rank over bucket
      counts, interpolated within the bucket and clamped to the
      observed range (exact for a singleton).  [nan] when empty. *)
  val quantile : t -> float -> float
end

(** Largest absolute componentwise error between two equal-length arrays. *)
val max_abs_error : expected:float array -> actual:float array -> float

(** -log2 of [max_abs_error]: bits of precision, as FHE papers report. *)
val precision_bits : expected:float array -> actual:float array -> float
