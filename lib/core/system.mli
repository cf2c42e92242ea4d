(** A complete simulated AIR module: PMK + per-partition (POS, PAL, APEX)
    + Health Monitor + interpartition router + spatial protection.

    [System] owns every component, advances the module one clock tick at a
    time (first-level scheduling, dispatching, PAL surrogate tick
    announcement with deadline verification, second-level process
    scheduling, and one tick of the heir process' script), and records every
    observable action in an event trace.

    Internally the executive is layered: {!Runtime} (state + lifecycle),
    {!Boot} (construction), {!Interp} (script interpretation) and this
    module (the clock-tick executive). [System] re-exports the public
    types so existing users are unaffected. The quiescence probes at the
    end of this interface let the [Air_exec] executive advance the module
    across provably-quiet spans in O(1) ({!quiescent},
    {!next_partition_event}, {!skip}). *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air_spatial
open Ident

(** An intrapartition communication object created during partition
    initialization (ARINC 653 objects are created before NORMAL mode). *)
type intra_object = Runtime.intra_object =
  | Semaphore_object of {
      name : string;
      initial : int;
      maximum : int;
      discipline : Intra.discipline;
    }
  | Event_object of { name : string }
  | Blackboard_object of { name : string; max_message_size : int }
  | Buffer_object of {
      name : string;
      depth : int;
      max_message_size : int;
      discipline : Intra.discipline;
    }

(** Static description of one partition: the model-level partition, one
    behaviour script per process, POS policy and PAL store choice. *)
type partition_setup = Runtime.partition_setup = {
  partition : Partition.t;
  scripts : Script.t array;
  policy : Kernel.policy;
  store : Deadline_store.impl;
  autostart : bool array;
      (** Processes started by the partition's initialization; others wait
          for an explicit START (e.g. the injected faulty process of the
          paper's Sect. 6 prototype). *)
  memory_requests : Memory.request list;
  intra_objects : intra_object list;
      (** Created at initialization, before the partition enters normal
          mode. Surviving a warm restart, recreated on a cold restart. *)
  error_handler : string option;
      (** Name of the partition's error-handler process (ARINC 653: process
          level errors "cause an application error handler to be invoked",
          paper Sect. 2.4): started by the Health Monitor on any
          process-level error of this partition, in addition to the
          configured recovery action. The process should normally not be
          autostarted. *)
}

val partition_setup :
  ?policy:Kernel.policy ->
  ?store:Deadline_store.impl ->
  ?autostart:(string * bool) list ->
  ?memory_requests:Memory.request list ->
  ?intra_objects:intra_object list ->
  ?error_handler:string ->
  Partition.t ->
  Script.t list ->
  partition_setup
(** [autostart] lists exceptions by process name (default: everything
    autostarts). Default memory requests: one page-aligned 16 KiB region
    each of code, data and stack. Raises [Invalid_argument] if the script
    count differs from the partition's process count, or [error_handler]
    names an unknown process. *)

type config = Runtime.config = {
  partitions : partition_setup list;
  schedules : Schedule.t list;
  initial_schedule : Schedule_id.t option;
  network : Port.network;
  hm_tables : Hm.tables;
  trace_capacity : int option;
      (** Events the trace retains: the newest [n] with [Some n], the whole
          run with [None]. {!violations} and {!activity} read what is
          retained; {!event_counts} and the trace's digest
          ({!Air_sim.Trace.digest}) cover the whole run either way. An
          observation ({!Observe}) records the retained count too, so
          fingerprints compare only at equal capacity, and a fault
          campaign is judged only on a trace that kept its head. *)
  recorder : Air_obs.Span.t option;
      (** Flight recorder receiving spans from the PMK scheduler and
          dispatcher (partition windows, schedule switches, change
          actions), the PALs (clock-tick supervision, deadline misses),
          the Health Monitor handlers and the IPC router; [None] disables
          span recording entirely. *)
  telemetry : Air_obs.Telemetry.config option;
      (** Telemetry downlink: when set, the module aggregates per-MTF
          frames (per-partition utilization, slack, dispatch-jitter and
          IPC-latency percentiles, catch-up depth, deadline misses, HM
          invocations) and evaluates the configured temporal-health
          watchdogs at every frame close, raising
          {!Air_model.Error.Temporal_degradation} through the HM tables on
          a breach. [None] disables telemetry entirely. *)
  causal : Air_obs.Causal.t option;
      (** Flow tracker: when set, every originating IPC write is stamped
          with a correlation id that travels with the message through
          queues, gateway drains and cluster links, and every hop
          (send / receive / forward / fault perturbation) is recorded —
          the raw material for Chrome flow arrows and the
          {!Air_vitral.Flows} latency view. [None] disables stamping. *)
  cores : int option;
      (** [Some n] with [n > 1] shards every scheduling table over [n]
          processor cores ({!Air_model.Multicore.shard}, original window
          offsets preserved) and drives one PMK lane per core off the
          global clock; mode-based schedule switches are broadcast to
          every lane. [None] or [Some 1] runs the configured tables
          themselves on one lane ({!Pmk_mc.of_pmk}). Either way the
          executive drives the lanes through one {!Pmk_mc} path. *)
  contention : Contention.config option;
      (** Shared-resource contention model: per-partition memory-bandwidth
          budgets per MTF window, a decayed cache-pressure score and a
          slowdown curve applied when partitions co-running on different
          lanes exceed the aggregate budget. Every memory/TLB touch is
          charged ({!Air_spatial.Protection.access_costed}); a partition
          that blows its own budget escalates through the HM as
          {!Air_model.Error.Temporal_degradation} exactly once per window;
          owed slowdown is consumed as extra window ticks in place of
          script ticks. [None] disables the model entirely — the executive
          is then bit-identical to the pre-contention code path. *)
}

val config :
  ?initial_schedule:Schedule_id.t ->
  ?network:Port.network ->
  ?hm_tables:Hm.tables ->
  ?trace_capacity:int option ->
  ?recorder:Air_obs.Span.t ->
  ?telemetry:Air_obs.Telemetry.config ->
  ?causal:Air_obs.Causal.t ->
  ?cores:int ->
  ?contention:Contention.config ->
  partitions:partition_setup list ->
  schedules:Schedule.t list ->
  unit ->
  config
(** [trace_capacity] defaults to [Some 16_384]: 64 chunks, about 140 KB of
    a typical event mix. Pass [None] to keep the whole run. Raises
    [Invalid_argument] when [cores] is non-positive. *)

type t = Runtime.t

val create : config -> t
(** Validates schedules ({!Air_model.Validate.validate_set}), the port
    network ({!Air_ipc.Port.validate}) and memory maps; raises
    [Invalid_argument] with the first diagnostic otherwise. Partitions boot
    in their configured initial mode (ARINC 653 default: cold start) and
    complete initialization — starting autostart processes and entering
    normal mode — the first time they are dispatched. *)

(** {1 Advancing time} *)

val step : t -> unit
(** One system clock tick. No-op once the module is halted. *)

val run : t -> ticks:int -> unit

val run_mtfs : t -> int -> unit
(** Run whole major time frames of the schedule current at each boundary. *)

val run_mtfs_with : advance:(int -> unit) -> t -> int -> unit
(** [run_mtfs_with ~advance t n] is {!run_mtfs} with [advance ticks] in
    place of [run t ~ticks], for an executive that advances the module its
    own way. Exactly at a boundary a pending mode-based switch becomes
    effective on the next tick, possibly changing the MTF, so the boundary
    tick is advanced first and the frame finished under the schedule
    actually running. *)

val now : t -> Time.t
val halted : t -> string option

(** {1 Quiescence and skip-ahead}

    The probes the [Air_exec] executive combines with
    {!Pmk_mc.next_preemption_tick} to advance the module across quiet spans
    in O(1) while staying bit-identical to per-tick execution. A span is
    quiet when the partitions holding cores are idle or when their heirs
    only compute. *)

val quiescent : t -> bool
(** Whether per-tick execution would only let time pass right now: every
    partition currently holding a core is either idle, or in normal mode
    with no pending clock-jitter bookkeeping, no owed interference stall,
    and either no schedulable process or a {e steady} heir. A steady heir
    is re-elected by its POS without any state change
    ({!Air_pos.Kernel.steady_heir}) and sits inside a [Compute] action
    that outlasts the next tick. Round-robin partitions never have one.
    Partitions not holding a core are never driven per-tick and cannot
    break quiescence. Without a contention model the stall conjunct is
    trivially true. A module that has not run its first tick is not
    quiescent: that tick dispatches the first windows. *)

val next_partition_event : t -> Time.t
(** The earliest future tick at which a currently-active partition becomes
    interesting again: a blocked process' wake, timeout or release
    instant, or the tick after its earliest PAL deadline (a deadline [d]
    first raises a violation at [d + 1]). For a steady heir it is also
    the tick that ends its [Compute] action, since that tick runs the
    actions after it, and the first tick whose compute charge would blow
    the partition's bandwidth budget or arm contention stall
    ({!Air_spatial.Contention.compute_headroom}). {!Air_sim.Time.infinity}
    when nothing is pending. *)

val skip : t -> ticks:int -> unit
(** Batch-advance the global clock by [ticks]. Each steady heir's compute
    progress is applied in O(1): its compute counter drops by [ticks],
    its mailbox and timeout flag are consumed as the first of those ticks
    would consume them, and the [ticks] compute charges land as one. Only
    sound across a span where {!quiescent} holds and no lane preemption,
    partition event, telemetry frame boundary or fault injection falls
    strictly inside; under that contract the result is bit-identical to
    [ticks] calls of {!step}. *)

(** {1 Observation} *)

val trace : t -> Event.t Trace.t
(** The module's event log: the newest [trace_capacity] events, or the
    whole run. *)

val lane : t -> Pmk_mc.t
(** The PMK lanes driving the module: one per processor core, a single
    lane for a single-core module. *)

val pmk : t -> Pmk.t
(** The primary lane's scheduler (lane 0 under multicore) — the one that
    owns the dispatcher histogram, the module clock and telemetry
    frames. *)

val cores : t -> int
(** Number of processor cores (lanes); 1 for a single-core module. *)

val hm : t -> Hm.t
val router : t -> Router.t
val protection : t -> Protection.t

val metrics : t -> Air_obs.Metrics.t
(** The module's registry. The scheduler's dispatcher histogram, the
    router and the MMU/TLB record into it; every other series is a view,
    read when the registry is read: [pmk.ticks] of lane 0's clock,
    [pmk.context_switches], [pmk.schedule_switches] and the three
    [pal.deadline*] counts of {!event_counts}, [pal.store_size.pN] of each
    partition's deadline store, [hm.*] of the Health Monitor's occurrence
    table, and the recorder and causal drop counts. *)

val metrics_snapshot : t -> Air_obs.Metrics.snapshot
val event_counts : t -> (string * int) list
(** Per-kind totals of every event emitted to the trace so far, evicted
    ones included. *)

val metrics_report : t -> string
(** Human-readable metrics + event-count table
    ({!Air_obs.Report.to_string}). *)

val metrics_json : t -> string
(** The same snapshot as a JSON object ({!Air_obs.Report.to_json}). *)

val recorder : t -> Air_obs.Span.t option
(** The flight recorder the module was configured with, if any. *)

val causal : t -> Air_obs.Causal.t option
(** The causal flow tracker the module was configured with, if any. *)

val flow_entries : t -> Air_obs.Causal.entry list
(** Retained causal hop records, oldest first; [[]] without a tracker. *)

val export_meta : t -> (string * int) list
(** Bounded-retention drop counters ([dropped_spans],
    [dropped_flow_records]) for the instruments actually configured —
    the [air.meta] payload of {!chrome_trace}. *)

val telemetry : t -> Air_obs.Telemetry.t option
(** The telemetry accumulator, when the config enabled telemetry. *)

val contention : t -> Contention.t option
(** The live contention accounts, when the config enabled the model. *)

val telemetry_frames : t -> Air_obs.Telemetry.frame list
(** Retained closed frames, oldest first; [[]] without telemetry. *)

val telemetry_flush : t -> Air_obs.Telemetry.frame option
(** Close the final partial frame (a run rarely ends exactly on an MTF
    boundary) so exports cover the whole run. Watchdogs are not evaluated
    on the flushed frame — its slack is meaningless. [None] without
    telemetry or when no tick was accumulated since the last close. *)

val spans : t -> Air_obs.Span.span list
(** Retained completed flight-recorder spans; [[]] without a recorder. *)

val track_names : t -> (int * string) list
(** Display names for flight-recorder tracks: [(-1, "AIR module")] plus
    one entry per partition (track = partition index). *)

type chrome_parts = {
  chrome_tracks : (int * string) list;  (** {!track_names} *)
  chrome_spans : Air_obs.Span.span list;
      (** Retained spans, then the open ones ending now. *)
  chrome_events : (int * string * string) list;
      (** Retained events as [(time, label, detail)]. *)
  chrome_flows : Air_obs.Causal.entry list;  (** {!flow_entries} *)
}

val chrome_parts : ?shift:int -> ?prefix:string -> t -> chrome_parts
(** One module's share of a Chrome trace. [shift] (default 0) is added to
    every track of tracks, spans and flows, and [prefix] (default none)
    is put before every track name and event label, so that
    {!Cluster.chrome_trace} can merge modules as distinct process groups. *)

val chrome_trace : t -> string
(** The run as Chrome trace-event JSON ({!Air_obs.Trace_export}):
    flight-recorder spans (when a recorder is configured) merged with the
    retained event trace and causal flow events (when a tracker is
    configured), loadable in [chrome://tracing] or Perfetto. *)

val partition_count : t -> int
val partition_ids : t -> Partition_id.t list
val partition_mode : t -> Partition_id.t -> Partition.mode
val kernel_of : t -> Partition_id.t -> Kernel.t
val pal_of : t -> Partition_id.t -> Pal.t
val intra_of : t -> Partition_id.t -> Intra.t

val region_of :
  t -> Partition_id.t -> Memory.section -> Memory.region option
(** The partition's allocated region for a section — scripts use it to
    compute legitimate (or deliberately out-of-bounds) addresses. *)

val regions_of : t -> Partition_id.t -> Memory.region list
(** Every region of the partition's memory map (empty when the partition
    has none) — the fault injector uses it to compute addresses that lie
    outside the partition's whole footprint. *)

val violations : t -> (Time.t * Process_id.t * Time.t) list
(** The deadline violations in the retained trace: (detection time,
    process, violated deadline). Every violation of the run when
    [trace_capacity] is [None]; the [deadline-violation] count of
    {!event_counts} totals them either way. *)

val activity : t -> (Time.t * Partition_id.t option) list
(** Context-switch history in the retained trace: (tick, partition granted
    the processor). *)

(** {1 Operator interventions (the prototype's keyboard, Sect. 6)} *)

val start_process :
  t -> Partition_id.t -> name:string -> (unit, string) result
(** Inject: start a (typically non-autostarted, faulty) process by name. *)

val stop_process :
  t -> Partition_id.t -> name:string -> (unit, string) result

val request_schedule : t -> Schedule_id.t -> (unit, string) result
(** Operator-requested mode-based schedule switch, honoured at the end of
    the current major time frame. *)

val restart_partition :
  t -> Partition_id.t -> Partition.mode -> (unit, string) result
(** Force a partition restart ([Cold_start] or [Warm_start]) or shutdown
    ([Idle]); [Normal] is rejected. *)

val deliver_remote :
  ?cid:Air_obs.Causal.id ->
  t ->
  port:Router.port ->
  bytes ->
  (unit, string) result
(** A message arriving from the inter-module communication infrastructure
    (paper Sect. 2.1): injected into the local destination port with this
    router ID ({!Router.resolve} of {!router}) and, for queuing ports,
    handed to a blocked receiver if one waits. Overflow
    is reported as a port-overflow event and [Ok] — the sender cannot tell,
    as over a real bus. [cid] is the correlation id the message carried on
    the wire (default {!Air_obs.Causal.none}); storing it with the payload
    lets the eventual receive close the originating flow. *)

val drain_remote :
  t -> port:Router.port -> (bytes * Air_obs.Causal.id) option
(** Pop one message from a local destination port acting as the gateway
    towards the communication infrastructure, recording a [Forward] hop
    (not a receive — the message is leaving the module, not being
    consumed). [None] when empty. The returned correlation id rides the
    link transfer to the destination module. *)

val remote_pending : t -> port:Router.port -> int
(** Messages currently queued at the destination port with this ID (0 for
    unknown, sampling or source ports) — the non-destructive occupancy
    probe the fleet engine uses to flag gateways holding parked
    traffic. *)

val note_flow_perturb :
  t -> what:Air_obs.Causal.perturbation -> Air_obs.Causal.id -> unit
(** Record a fault striking a stamped message currently outside any
    router buffer (e.g. in flight on the cluster bus); no-op without a
    tracker or on {!Air_obs.Causal.none}. *)

val inject_module_error : t -> Error.code -> detail:string -> unit
(** Report a module-level error (e.g. a simulated hardware fault or power
    failure) to the Health Monitor; the configured module action is
    applied — possibly stopping or reinitializing the whole system. *)

(** {1 Fault injection (campaign engine hooks, [Faults])} *)

val note_fault : t -> label:string -> unit
(** Record a {!Event.Fault_injected} marker in the trace, so campaign
    reports and replay checks can anchor every injection to an instant. *)

val inject_memory_access :
  t -> Partition_id.t -> access:Mmu.access_kind -> address:int -> bool
(** Drive a memory access on behalf of the partition through the full
    protection path ({!Protection.access}: 3-level table walk + TLB),
    exactly as the script interpreter does: a {!Event.Memory_access} event
    is always emitted, and a denied access additionally raises a
    partition-level [Memory_violation] through the Health Monitor. Returns
    whether the access was granted — a bit flip landing inside the
    partition's own region is spatially contained by construction. *)

val inject_bandwidth_hog : t -> Partition_id.t -> permille:int -> int option
(** Bandwidth-hog fault: charge the partition a bulk demand of
    [its budget * permille / 1000] bandwidth units (minimum 1) against its
    window account and its current lane's account, exactly as if it had
    issued that many unit accesses. Returns the charged demand, or [None]
    when no contention model is configured (the fault has nothing to
    saturate). Blowing the budget escalates through the Health Monitor as
    [Temporal_degradation] once per window; co-runners on other lanes may
    subsequently accrue slowdown per the configured curve — and only per
    that curve, which the campaign oracle verifies from telemetry. *)

val inject_clock_jitter : t -> Partition_id.t -> ticks:int -> unit
(** Suppress the PAL surrogate clock-tick announcement for the partition's
    next [ticks] active ticks (tick loss at the PMK level): deadline
    verification and POS timeouts stall while the running process keeps
    computing, then the withheld ticks arrive as one catch-up burst —
    strictly a temporal fault local to the partition. Cumulative; cleared
    by a partition restart or shutdown. *)

val configuration : t -> config
(** The configuration the module was built with: the configured
    scheduling tables (not a lane's sharded view), port network and
    Health Monitor tables, which the trace oracle replays against the
    trace. *)
