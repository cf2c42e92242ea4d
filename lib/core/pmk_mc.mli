(** The PMK lanes of a module: one Partition Scheduler + Dispatcher pair
    (Algorithms 1 and 2) per processor core, driven off the same global
    clock tick. A single-core module is the one-lane case ({!of_pmk}); a
    multicore module — paper future-work item (iv) — runs one lane per
    core over a shared set of multicore scheduling tables ({!create}).
    Mode-based schedule switches are broadcast: every lane's scheduler
    stores the same next-schedule identifier and, because all lanes of one
    table share its MTF, the switch takes effect on every core at the same
    boundary.

    With several lanes, correctness relies on
    {!Air_model.Multicore.validate}: a partition's windows never overlap
    across cores, so at any tick each partition is active on at most one
    core and the per-partition POS/PAL state is only ever driven from one
    lane.

    Observation follows lane 0, the primary lane: metrics, module-level
    schedule state and telemetry frame close. The one exception is a
    module's [pmk.context_switches], a view of its [context-switch] event
    count, which covers every lane. No lane samples busy/idle occupancy;
    the driving executive records one combined sample per global tick from
    {!combined_active}. *)

open Air_model
open Ident

type t

val create :
  ?metrics:Air_obs.Metrics.t ->
  ?recorder:Air_obs.Span.t ->
  ?telemetry:Air_obs.Telemetry.t ->
  ?initial_schedule:Schedule_id.t ->
  partition_count:int ->
  Multicore.t list ->
  t
(** Raises [Invalid_argument] if any table fails
    {!Air_model.Multicore.validate}, the tables disagree on core count, or
    identifiers are not dense.

    Observation convention: [metrics] (the dispatcher-elapsed histogram)
    follow lane 0; the shared
    [recorder] receives every lane's partition-window spans, tagged with
    the lane as sub-lane; the shared [telemetry] accumulator receives
    dispatch-jitter samples from every lane and lane 0 closes frames at
    MTF boundaries. *)

val of_pmk : Pmk.t -> t
(** The one-lane executive over [pmk] — a single-core module's scheduler,
    built from the configured tables themselves. [pmk] should keep the
    {!Pmk.create} defaults of lane 0 and frame ownership. *)

val core_count : t -> int
val ticks : t -> Air_sim.Time.t
val current_schedule : t -> Schedule_id.t
val next_schedule : t -> Schedule_id.t

val last_schedule_switch : t -> Air_sim.Time.t
(** Lane 0's {!Pmk.last_schedule_switch}; every lane switches at the same
    boundary. *)

val request_schedule_switch :
  t -> Schedule_id.t -> (unit, Pmk.switch_error) result
(** Broadcast to every core's scheduler. *)

val tick : t -> Pmk.tick_outcome array
(** One outcome per core, in core order. The array and the records it
    holds are reused across calls (see {!Pmk.tick_outcome}) — valid only
    until the next {!tick}. *)

val active_partitions : t -> Partition_id.t option array
(** Who holds each core right now. Returns a shared buffer refilled on
    each call — valid until the next call, stable between ticks. *)

val combined_active : t -> Partition_id.t option
(** The single occupant of the module's processing resources this tick:
    the first busy lane. Validated sharded tables keep partitions mutually
    exclusive in time, so at most one lane is busy. Feeds the executive's
    combined telemetry occupancy sample; allocation-free. *)

val active_lane_of : t -> Partition_id.t -> int option
(** The lane on which the partition currently holds a core, if any — the
    contention model attributes injected bandwidth demand to it. *)

val next_preemption_tick : t -> Air_sim.Time.t
(** Minimum of {!Pmk.next_preemption_tick} over the lanes — the next
    instant at which any core's heir can change. *)

val skip : t -> ticks:Air_sim.Time.t -> unit
(** Batch-advance every lane's clock by [ticks] (see {!Pmk.skip}); the
    lanes stay in lockstep. *)

val core : t -> int -> Pmk.t
(** The [i]th lane's scheduler (observation only). Raises
    [Invalid_argument] out of range. *)
