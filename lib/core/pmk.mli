(** AIR Partition Management Kernel (paper Sect. 2.1, 4).

    First level of the two-level hierarchical scheduling scheme: the
    Partition Scheduler (Algorithm 1) runs at every system clock tick,
    consults the current partition scheduling table's preemption points and
    selects the heir partition; the Partition Dispatcher (Algorithm 2)
    performs the context switch, accounts the ticks elapsed since the heir
    last ran, and applies any pending schedule-change action.

    Mode-based schedules: multiple PSTs are installed at integration time;
    {!request_schedule_switch} (APEX SET_MODULE_SCHEDULE) stores the
    identifier of the next schedule, and the switch becomes effective at the
    start of the next major time frame (Algorithm 1, lines 3–7). *)

open Air_sim
open Air_model
open Ident

type t

val create :
  ?metrics:Air_obs.Metrics.t ->
  ?recorder:Air_obs.Span.t ->
  ?telemetry:Air_obs.Telemetry.t ->
  ?frame_owner:bool ->
  ?lane:int ->
  ?window_allotment:int array array ->
  ?initial_schedule:Schedule_id.t ->
  partition_count:int ->
  Schedule.t list ->
  t
(** Schedules are indexed by their {!Schedule_id}; ids must be dense
    ([0 .. n-1]) and tables valid per {!Validate.validate_set} — raises
    [Invalid_argument] otherwise. [initial_schedule] defaults to id 0.
    [metrics] receives the [pmk.dispatcher_elapsed] histogram; a private
    registry is used when omitted. Ticks and switches are not counted
    here: a module's [pmk.ticks] is a view of lane 0's clock, its switch
    counts views of its event counts. [recorder], when given, receives
    flight-recorder spans: a [partition-window] span per dispatch interval
    (on the partition's track), a [schedule-switch] instant on the module
    track at every effective mode switch, and a [schedule-change-action]
    instant when a pending action is delivered at first dispatch.
    [telemetry], when given, is primed with the initial schedule's
    per-partition window allotments and then fed a dispatch-jitter sample
    per context switch; its frame is closed at every MTF boundary (see
    {!tick_outcome.frame_closed}). The scheduler records no busy/idle
    occupancy: the executive driving it ({!System.step}) records one
    sample per global tick, whatever its lane count.

    [frame_owner] (default [true]) controls whether this scheduler closes
    telemetry frames at MTF boundaries. A multicore executive shares one
    accumulator between its lanes and lane 0 owns the frame. [lane]
    (default 0) is this scheduler's core index within a multicore
    executive: every [partition-window] span it records carries the lane
    as its sub-lane, so the timeline can attribute windows to cores;
    module-track [schedule-switch] instants are only recorded by the frame
    owner, one per effective switch cluster-wide. [window_allotment] overrides
    the per-schedule per-partition allotted window time used to prime
    telemetry frames (indexed by schedule id, then partition) — a
    multicore frame owner passes the cross-core totals, since its own
    lane's windows only cover part of each partition's grant. *)

val schedules : t -> Schedule.t array
val schedule : t -> Schedule_id.t -> Schedule.t
val current_schedule : t -> Schedule_id.t
val next_schedule : t -> Schedule_id.t
val last_schedule_switch : t -> Time.t
(** Time of the last schedule switch; 0 if none ever occurred. *)

val ticks : t -> Time.t
(** The global system clock tick counter. *)

val active_partition : t -> Partition_id.t option

type switch_error =
  | No_such_schedule of int
  | Same_schedule  (** Requested schedule is already current and no switch is pending — ARINC 653 still accepts this (NO_ACTION). *)

val request_schedule_switch :
  t -> Schedule_id.t -> (unit, switch_error) result
(** Stores the identifier; the switch happens at the top of the next MTF.
    [Error Same_schedule] is informational — the request is remembered
    (it cancels a pending switch back to the current schedule). *)

(** Outcome of one clock tick, for the system layer to act upon.

    The fields are mutable because {!tick} reuses one outcome record per
    scheduler, overwriting it in place so the steady-state tick allocates
    nothing: the returned record is only valid until the next {!tick} on
    the same scheduler — copy out what must survive. *)
type tick_outcome = {
  mutable schedule_switched : (Schedule_id.t * Schedule_id.t) option;
      (** (from, to) when this tick's MTF boundary made a pending switch
          effective. *)
  mutable context_switch :
    (Partition_id.t option * Partition_id.t option) option;
      (** (previous active, new active) when the dispatcher switched. *)
  mutable elapsed : Time.t;
      (** Ticks elapsed since the (new) active partition last held the
          processing resources — what the PAL announces to the POS. Zero
          when the tick left the processor idle. *)
  mutable change_action : (Partition_id.t * Schedule.change_action) option;
      (** Pending ScheduleChangeAction to apply to the dispatched partition
          (first dispatch after a switch; [No_action] entries are not
          reported). *)
  mutable frame_closed : Air_obs.Telemetry.frame option;
      (** The telemetry frame closed by this tick's MTF boundary, when a
          telemetry accumulator is attached. The boundary tick itself is
          accumulated into the {e new} frame; after a mode-based schedule
          switch the closed frame still carries the {e old} schedule's
          index, so watchdogs judge each frame against the schedule it ran
          under. *)
}

val tick : t -> tick_outcome
(** Advance the clock one tick and run Scheduler + Dispatcher. Returns the
    scheduler's reused outcome record (see {!tick_outcome}). *)

val next_preemption_tick : t -> Time.t
(** The absolute tick at which the preemption table next fires — the next
    window boundary, idle-gap start, MTF boundary (frame close) or
    effective schedule switch, whichever comes first. Strictly greater
    than {!ticks}. Between {!ticks} and this instant the heir partition
    cannot change, so a quiescent span may be batch-advanced with
    {!skip}. *)

val skip : t -> ticks:Time.t -> unit
(** [skip t ~ticks:n] batch-advances the clock by [n] ticks in O(1),
    equivalent to [n] calls of {!tick} across a span the caller has proven
    quiescent: [ticks t + n < next_preemption_tick t] and no
    partition-level work pending. Updates the clock and the active
    partition's lastTick bookkeeping; the executive replays the
    span into the telemetry occupancy accumulator ({!System.skip}). No-op
    for [n <= 0]. *)

val mtf_position : t -> Time.t
(** Offset of the current tick within the running MTF:
    [max 0 (ticks - last_schedule_switch) mod MTF] — always within
    [\[0, MTF)], including before the first tick. *)
