(** Deterministic pseudo-random number generation (splitmix64).

    Every synthetic workload in the repository draws from an explicit [Rng.t]
    so that experiments are bit-reproducible across runs and machines; the
    global [Stdlib.Random] state is never used. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val split : t -> t
(** Derives a new generator whose stream is statistically independent of the
    parent's subsequent output. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int rng n] is uniform over [0, n-1]. Raises [Invalid_argument] if
    [n <= 0]. Unbiased (rejection sampling). *)

val exponential : t -> float -> float
(** [exponential rng mean] draws from an exponential distribution with the
    given mean (inter-arrival times of sporadic activations). *)

val log_uniform : t -> int -> int -> int
(** [log_uniform rng lo hi] draws an integer whose logarithm is uniform over
    [log lo, log hi] — the conventional way of drawing task periods spanning
    several orders of magnitude. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Raises [Invalid_argument] on an empty array. *)

val uunifast : t -> int -> float -> float array
(** [uunifast rng n u] generates [n] task utilizations summing to [u] with
    the UUniFast algorithm (Bini & Buttazzo), used by the synthetic workload
    generators of experiment E8/E11. *)
