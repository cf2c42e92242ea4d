(** Metrics registry: monotonic counters, gauges and fixed-bucket
    histograms over integers.

    Recording is O(1) and float-free — the PMK clock-tick path records into
    these from inside the simulated ISR. Handles are obtained once, at
    component construction, so the hot path never touches the registry's
    hash table. The instrument constructors are get-or-create: asking for
    an already-registered name returns the existing instrument, letting
    several instances of a component (e.g. one PAL per partition) aggregate
    into shared series. *)

type counter
type gauge
type histogram

type t
(** A registry of named instruments. *)

val create : unit -> t

(** {1 Instruments (get-or-create)}

    Each raises [Invalid_argument] when the name is already registered as a
    different kind of instrument. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : t -> string -> histogram
(** Buckets bounded above, inclusively, by 0 and the powers of two up to
    1024, which cover tick-latency measurements well; observations above
    1024 land in an implicit +inf bucket. *)

(** {1 Recording (hot path)} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Counters are monotonic: non-positive increments are ignored. *)

val value : counter -> int

val set : gauge -> int -> unit
val gauge_incr : gauge -> unit
val gauge_decr : gauge -> unit
val level : gauge -> int

val observe : histogram -> int -> unit

(** {1 Snapshot (off the hot path)} *)

type histogram_view = {
  view_bounds : int array;
  view_buckets : int array;  (** length [bounds] + 1; last bucket is +inf *)
  view_observations : int;
  view_total : int;
  view_peak : int;
}

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of histogram_view

type snapshot = (string * value) list

val snapshot : t -> snapshot
(** Every instrument's current value, sorted by name. *)

val find : t -> string -> value option

val view_quantile : histogram_view -> num:int -> den:int -> int
(** Estimated value at quantile [num/den], from the fixed buckets: the
    inclusive upper bound of the bucket holding rank
    [ceil(observations * num / den)], clamped to the exact peak (ranks in
    the +inf bucket answer with the peak). 0 when the view is empty. Raises
    [Invalid_argument] unless [0 <= num <= den] and [den > 0]. *)
