(** Shared-resource contention model: per-partition memory-bandwidth
    budgets per MTF window, a decayed cache-pressure score and a slowdown
    curve.

    The paper's spatial partitioning stops at the MMU; this module extends
    it to the shared hardware behind the MMU (memory bus, caches), in the
    spirit of robust-resource-partitioning ARINC 653 work. Every memory or
    TLB touch of a partition is charged to a per-window account (the
    per-access cost comes from {!Protection.access_costed}); compute ticks
    may charge a configurable cost too. Accounts are kept per partition
    and per lane and reset at every MTF boundary, so no budget or slowdown
    debt leaks across windows or schedule switches.

    Two things happen when accounts overflow:

    - A partition whose own window demand first exceeds its budget has
      {e blown} its budget: {!charge} reports it exactly once per window,
      and the executive escalates through the Health Monitor as a
      [temporal-degradation] error.
    - When partitions co-run on at least two different lanes within the
      window and the {e aggregate} demand exceeds the sum of all budgets,
      every further charge accrues {e stall ticks} on the charging
      partition, per the slowdown curve. The executive consumes one stall
      tick in place of each script tick, so interference manifests as
      extra consumed window time — deterministically, in integers, with
      no observable effect when the model is disabled or idle.

    All state is plain integers mutated in place; {!charge} and the stall
    accessors allocate nothing, keeping the per-tick hot path
    allocation-free. *)

type config = {
  default_budget : int;
      (** Bandwidth units per MTF window granted to every partition not
          listed in [budgets]. Must be positive. *)
  budgets : (int * int) list;
      (** Per-partition overrides: [(partition index, budget)]. *)
  curve : (int * int) list;
      (** Slowdown curve: [(overage permille threshold, stall ticks per
          access)], thresholds strictly increasing, steps non-negative.
          A charge made while the aggregate account is over budget by
          [o] permille accrues the step of the highest threshold
          [<= o]; an empty curve models contention without slowdown. *)
  compute_cost : int;
      (** Bandwidth units charged per consumed compute tick (cache
          pressure of a busy core); 0 makes computation free. *)
  pressure_decay_permille : int;
      (** Window-to-window decay of the cache-pressure score:
          [pressure' = pressure * decay / 1000 + window demand].
          0 forgets instantly, 1000 never forgets. *)
}

val config :
  ?budgets:(int * int) list ->
  ?curve:(int * int) list ->
  ?compute_cost:int ->
  ?pressure_decay_permille:int ->
  default_budget:int ->
  unit ->
  config
(** Validating constructor. [curve] defaults to [[(0, 1)]] — one stall
    tick per access as soon as the aggregate budget is exceeded;
    [compute_cost] defaults to 0, [pressure_decay_permille] to 500.
    Raises [Invalid_argument] on non-positive budgets, negative or
    non-increasing curve thresholds, negative steps, or a decay outside
    [0, 1000]. *)

type t

val create : partitions:int -> lanes:int -> config -> t
(** Fresh accounts, all zero, window open at tick 0. *)

val configuration : t -> config
val budget : t -> int -> int
(** Resolved per-window budget of a partition. *)

val aggregate_budget : t -> int
val max_stall_per_access : t -> int
(** Largest step of the slowdown curve — the containment oracle's bound:
    a partition's throttled ticks per window never exceed
    [max_stall_per_access * its charged accesses]. *)

val set_lane : t -> int -> unit
(** Selects the lane-local account subsequent {!charge}s debit. The
    executive sets it before driving each core's partition. *)

val charge : t -> partition:int -> cost:int -> bool
(** Charges [cost] units to the partition's window account, the selected
    lane's account and the aggregate account, then applies the slowdown
    curve: if partitions have co-run on [>= 2] lanes this window and the
    aggregate account is over the aggregate budget, the charging
    partition accrues stall ticks. Returns [true] exactly once per
    window per partition — at the charge that first pushes its own
    account over its budget (the executive's cue to escalate through the
    Health Monitor). *)

val compute_headroom : t -> partition:int -> lane:int -> charging:int -> int
(** How many further compute ticks the partition can charge on [lane]
    (each costing [compute_cost]) before one of those charges crosses a
    threshold of {!charge}: the charge that would blow its own budget
    (none once blown this window), or, once two lanes will have charged
    this window, the charge that would take the aggregate account over
    the aggregate budget and arm stall. [charging] is the number of
    lanes charging compute ticks side by side in the span; they share
    the aggregate headroom. [max_int] when computation is free. *)

val stall_pending : t -> partition:int -> bool
val consume_stall : t -> partition:int -> unit
(** Consumes one owed stall tick (the executive calls it in place of a
    script tick) and counts it as throttled. *)

val rollover : t -> now:int -> unit
(** MTF-boundary window rollover: folds the closed window's demand into
    the decayed pressure scores, then zeroes every per-window account —
    demand, lane demand, stall debt, throttled counts and blown flags.
    Idempotent for a given [now]. *)

val window_start : t -> int

(* Observation (telemetry, dashboard, oracles). *)

val demand : t -> int -> int
(** Bandwidth units charged by the partition this window. *)

val lane_demand : t -> int -> int
(** Bandwidth units charged on the lane this window. *)

val total_demand : t -> int
val busy_lanes : t -> int
(** Lanes with nonzero demand this window ([>= 2] arms the curve). *)

val throttled : t -> int -> int
(** Stall ticks consumed by the partition this window. *)

val stall_debt : t -> int -> int
(** Stall ticks accrued but not yet consumed. *)

val pressure : t -> int -> int
(** Decayed cache-pressure score of the partition. *)

val co_runner_pressure : t -> int -> int
(** Sum of every {e other} partition's pressure score — the interference
    a partition sees from its co-runners. *)

val blown : t -> int -> bool
(** Whether the partition has blown its budget this window. *)
