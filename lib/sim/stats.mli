(** Descriptive statistics for experiment reporting.

    Two flavours: a streaming accumulator (Welford) used while a simulation
    runs, and whole-sample summaries (quantiles, histograms) computed when a
    table is printed. *)

type t
(** Streaming accumulator. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float

(** {1 Whole-sample summaries} *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], linear interpolation between order
    statistics. The array is sorted internally (copy; the argument is left
    intact). Raises [Invalid_argument] on an empty array, [q] outside
    [0,1], or a sample containing NaN. *)

val median : float array -> float

type histogram = { lo : float; width : float; counts : int array }

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram over the sample range. [bins >= 1]. Raises
    [Invalid_argument] when the sample is empty or contains NaN. *)
