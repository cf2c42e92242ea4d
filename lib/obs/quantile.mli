(** Mergeable log-bucketed (HDR-style) integer histogram.

    Built for hot-path latency tracking: {!record} is O(1) — a few shifts
    and one array increment, no allocation and no floating point — and
    percentiles are extracted on demand from the bucket counts. Buckets are
    exact below 16 and then log-linear (16 sub-buckets per power-of-two
    octave), bounding the relative error of a quantile estimate to ~6%;
    {!min_value} and {!max_value} are tracked exactly. Values are clamped
    to [\[0, 2{^30})]; negative inputs count as 0. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** O(1); clamps to the trackable range. *)

val count : t -> int
(** Number of recorded values. *)

val total : t -> int
(** Sum of recorded (clamped) values. *)

val min_value : t -> int
(** Exact minimum recorded value; 0 when empty. *)

val max_value : t -> int
(** Exact maximum recorded value; 0 when empty. *)

val value_at : t -> num:int -> den:int -> int
(** Estimated value at quantile [num/den] (e.g. [~num:99 ~den:100] for
    p99): the inclusive upper bound of the bucket holding the rank
    [ceil(count * num / den)], clamped to the exact maximum. 0 when empty.
    Raises [Invalid_argument] unless [0 <= num <= den] and [den > 0]. *)

val p50 : t -> int
val p90 : t -> int
val p99 : t -> int

val merge : into:t -> t -> unit
(** Add [t]'s buckets, count, total and extrema into [into]; [t] itself is
    left unchanged. Merging then extracting equals extracting from the
    union of the recorded values (within bucket resolution). *)

val clear : t -> unit
(** Reset to the empty state, retaining the allocated bucket array. *)
