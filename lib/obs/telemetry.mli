(** Per-MTF telemetry frames with temporal-health watchdogs.

    An accumulator fed from the PMK clock tick (per-partition window
    occupancy, dispatch jitter), the PAL (catch-up depth, deadline misses),
    the Health Monitor (error invocations) and the IPC router (queuing
    delivery latency). The PMK closes a frame at each major-time-frame
    boundary; the closed frame snapshots per-partition utilization,
    idle slack, and p50/p90/p99/max percentiles extracted from {!Quantile}
    histograms, and is retained on a bounded ring (same discipline as
    [Sim.Trace] / {!Span}).

    The ring is a {!Ring} of one flat int column: a closed frame is one
    slot of 20 ints ([f_index] … [f_ipc_max], then [f_interference] as 0
    or 1) followed by 11 ints per partition ([pf_window_ticks] …
    [pf_co_pressure]). The column starts empty and doubles up to the
    retention bound, so creating an accumulator allocates no frame
    storage. {!frame} records are built only when read ({!frames}, the
    exports) and for the caller of {!close_frame}, from the slot just
    written. No ring holds boxed frames: a queue of them links each new
    cell from the previous one, so every frame closed between two minor
    collections was promoted to the major heap, evicted or not.

    Watchdogs express temporal-health thresholds evaluated against each
    closed frame; the system layer maps {!breaches} to Health Monitor
    errors so degradation trends are handled by the configured recovery
    actions before (or alongside) hard deadline misses. *)

(** {1 Configuration} *)

(** Thresholds evaluated at frame close; [None] disables a check. *)
type watchdog = {
  min_slack : int option;  (** Breach when frame idle ticks fall below. *)
  max_jitter_p99 : int option;
      (** Breach when the frame's dispatch-jitter p99 exceeds this. *)
  max_catch_up : int option;
      (** Per partition: breach when the deepest PAL catch-up (elapsed
          ticks announced in one go after a preemption gap) exceeds this. *)
  max_deadline_misses : int option;
      (** Per partition: breach when deadline misses in the frame exceed
          this ([Some 0] = any miss breaches). *)
}

val watchdog :
  ?min_slack:int ->
  ?max_jitter_p99:int ->
  ?max_catch_up:int ->
  ?max_deadline_misses:int ->
  unit ->
  watchdog

val no_watchdog : watchdog
(** All thresholds disabled. *)

val watchdog_is_trivial : watchdog -> bool

type config = {
  retention : int option;
      (** Closed frames kept on the ring; [None] retains everything. *)
  default_watchdog : watchdog;
  schedule_watchdogs : (int * watchdog) list;
      (** Per-schedule overrides (schedule index → watchdog); schedules
          without an entry use [default_watchdog]. *)
}

val config :
  ?retention:int ->
  ?default_watchdog:watchdog ->
  ?schedule_watchdogs:(int * watchdog) list ->
  unit ->
  config
(** Raises [Invalid_argument] if [retention <= 0]. *)

val default_config : config
(** Unbounded retention, no watchdogs. *)

(** {1 Frames} *)

type partition_frame = {
  pf_partition : int;
  pf_window_ticks : int;  (** Ticks this partition held the processor. *)
  pf_allotted : int;
      (** Ticks the scheduling table allots it per MTF (0 when absent from
          the frame's schedule). *)
  pf_dispatches : int;
  pf_jitter_max : int;
  pf_catch_up_max : int;
  pf_deadline_misses : int;
  pf_hm_errors : int;
  pf_mem_demand : int;
      (** Bandwidth units the partition charged this frame (contention
          model); 0 when no model is configured. *)
  pf_mem_budget : int;  (** Its per-window bandwidth budget; 0 when none. *)
  pf_throttled : int;
      (** Ticks consumed as interference stall instead of script work. *)
  pf_co_pressure : int;
      (** Sum of the co-running partitions' cache-pressure scores at the
          frame's window open. *)
}

type frame = {
  f_index : int;  (** Monotonic frame number since telemetry started. *)
  f_schedule : int;  (** Schedule index the frame ran under. *)
  f_start : int;  (** First tick of the frame (inclusive). *)
  f_stop : int;  (** End of the frame (exclusive). *)
  f_busy : int;  (** Ticks some partition held the processor. *)
  f_slack : int;  (** Idle ticks — the frame's remaining slack. *)
  f_catch_up_max : int;
  f_deadline_misses : int;
  f_hm_errors : int;
  f_jitter_count : int;
  f_jitter_p50 : int;
  f_jitter_p90 : int;
  f_jitter_p99 : int;
  f_jitter_max : int;
  f_ipc_count : int;
  f_ipc_p50 : int;
  f_ipc_p90 : int;
  f_ipc_p99 : int;
  f_ipc_max : int;
  f_interference : bool;
      (** Whether a contention model fed this frame — gates the
          interference fields in the JSON/CSV exports so contention-free
          exports stay byte-identical to the pre-contention schema. *)
  f_partitions : partition_frame array;
}

val frame_utilization_permille : partition_frame -> int
(** [window_ticks * 1000 / allotted]; 0 when nothing was allotted. *)

(** {1 Accumulator} *)

type t

val create : ?config:config -> partition_count:int -> unit -> t

val frame_start : t -> int
val current_schedule : t -> int

val prime : t -> schedule:int -> allotted:int array -> unit
(** Set the schedule index and per-partition allotted ticks for the frame
    being accumulated (called at creation and at each schedule switch). *)

(** {2 Hot-path hooks} — O(1), no allocation. *)

val on_tick : t -> active:int -> unit
(** One system clock tick executed with partition index [active] holding
    the processor, negative meaning idle — a plain index, so the per-tick
    executive boxes no option on the steady-state tick path. *)

val on_ticks : t -> active:int -> count:int -> unit
(** Batch form of {!on_tick}: [count] consecutive ticks, all executed with
    the same [active] occupant (negative = idle). Used by the executive's
    skip-ahead path to replay a quiescent span into the frame accumulator
    in O(1); equivalent to calling {!on_tick} [count] times. No-op when
    [count <= 0]. *)

val on_dispatch : t -> partition:int -> jitter:int -> unit
(** A dispatch of [partition], [jitter] ticks after its scheduling-table
    window start. *)

val on_catch_up : t -> partition:int -> depth:int -> unit
(** The PAL announced [depth] elapsed ticks in one go (preemption gap). *)

val on_deadline_miss : t -> partition:int -> unit
val on_hm_error : t -> partition:int option -> unit
(** An HM error handler invocation ([None] = module level). *)

val on_ipc_delivery : t -> latency:int -> unit
(** A queuing message received [latency] ticks after it was enqueued. *)

(** {2 Interference hooks} — fed by the executive's contention model. *)

val enable_interference : t -> unit
(** Called once at boot when a contention model is attached; from then on
    every closed frame carries [f_interference = true] and the exports
    include the interference columns. *)

val on_mem_demand : t -> partition:int -> cost:int -> unit
(** [cost] bandwidth units charged by the partition. *)

val on_throttled : t -> partition:int -> unit
(** One tick consumed as interference stall instead of script work. *)

val set_interference_window : t -> partition:int -> budget:int -> co_pressure:int -> unit
(** Window-scoped facts for the frame being accumulated — the partition's
    bandwidth budget and the pressure its co-runners carried into the
    window; pushed at boot and at every window rollover (they persist
    across frame close, like the allotted ticks). *)

(** {2 Frame lifecycle} *)

val close_frame :
  t -> now:int -> next_schedule:int -> next_allotted:int array -> frame
(** Snapshot the accumulated frame ending (exclusively) at [now] into a
    slot of the retention ring, and reset the accumulator for a frame
    running under [next_schedule]/[next_allotted]. The returned frame is
    built from the slot (for the watchdogs); the ring keeps no pointer to
    it. *)

val flush : t -> now:int -> frame option
(** Close a final partial frame at the end of a run; [None] if no tick was
    accumulated since the last close. Watchdogs are not evaluated here —
    a partial frame's slack would trip [min_slack] spuriously. *)

val ticks_accumulated : t -> int
(** Ticks accumulated in the open frame so far. *)

val frames : t -> frame list
(** Retained closed frames, oldest first, built from the ring's slots. *)

val retained : t -> int
val total_frames : t -> int
(** Frames ever closed, including those evicted from the ring. *)

(** {1 Watchdog evaluation} *)

val watchdog_for : t -> schedule:int -> watchdog
(** The watchdog governing frames of [schedule] (per-schedule override or
    the default). *)

type breach =
  | Slack_below of { slack : int; min_slack : int }
  | Jitter_p99_above of { p99 : int; max_jitter_p99 : int }
  | Catch_up_above of { partition : int; depth : int; max_catch_up : int }
  | Deadline_misses_above of {
      partition : int;
      misses : int;
      max_deadline_misses : int;
    }

val breach_partition : breach -> int option
(** The partition a breach is attributed to; [None] for module-level
    breaches (slack, jitter). *)

val breaches : watchdog -> frame -> breach list
(** Threshold crossings of [frame] against [watchdog]; module-level
    breaches first, then per-partition ones in partition order. The jitter
    check is skipped on frames with no dispatches. *)

val pp_breach : Format.formatter -> breach -> unit

(** {1 Export} *)

val schema : string
(** ["air-telemetry/1"] — stamped into the JSON export. *)

val to_json : frame list -> string
(** One JSON object: [{"schema":…,"frames":[…]}], each frame carrying its
    per-partition array (with derived utilization permille). *)

val csv_header : string

val csv_interference_columns : string
(** Extra header columns appended when the exported frames carry
    interference data (see {!to_csv}). *)

val to_csv : frame list -> string
(** Header plus one row per (frame × partition); frame-level columns are
    repeated on each of the frame's partition rows. When any frame was
    accumulated with a contention model ([f_interference]), the
    interference columns are appended to the header and every row. *)
