(** Fixed-bucket log-scale histogram (HDR-style).

    Buckets are spaced geometrically: [buckets_per_decade] per power of
    ten between 1e-6 and 1e4, so relative error is bounded by the
    bucket width (~12% at the default 20/decade) regardless of where in
    the range a sample lands. Good enough for latency percentiles at a
    constant memory cost; exact min/max are tracked on the side. *)

type t

val create : ?buckets_per_decade:int -> unit -> t
(** Buckets cover 1e-6 .. 1e4 (microseconds to hours when samples are in
    seconds), 20 per decade by default. Samples outside the range clamp
    to the first/last bucket. Raises [Invalid_argument] if
    [buckets_per_decade < 1]. *)

val observe : t -> float -> unit
(** Non-finite samples are dropped; negatives clamp to the lowest
    bucket. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min : t -> float
(** Exact smallest observed sample; [nan] when empty. *)

val max : t -> float
(** Exact largest observed sample; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]: interpolated within the
    bucket holding the rank, clamped to the exact observed [min]/[max]
    (so [percentile t 0.0 = min t] and [percentile t 100.0 = max t]).
    [nan] when empty. *)

val merge_into : into:t -> t -> unit
(** Adds [t]'s buckets into [into]. Raises [Invalid_argument] when the
    two histograms were created with different bucket specs. *)

val clear : t -> unit

val to_json : t -> Json.t
(** Snapshot: count, sum, min/max/mean and p50/p90/p95/p99. *)

val pp : Format.formatter -> t -> unit
