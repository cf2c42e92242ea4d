(** Partition Operating System kernel (second level of the hierarchical
    scheduling scheme, paper Fig. 2).

    Manages the task set τ_m of one partition: process states (eq. (13)),
    release points, blocking and timeouts, and heir selection. Two native
    scheduling policies are provided: the ARINC 653 preemptive
    priority-driven policy of eq. (14)–(15) (an RTOS such as RTEMS) and a
    round-robin policy standing in for a generic non-real-time POS such as
    embedded Linux (paper Sect. 2.5).

    The kernel does not interpret process bodies — the AIR core does — and
    it does not detect deadline violations — the PAL does (Algorithm 3).
    Deadline bookkeeping is delegated through {!hooks} so the PAL's store
    stays authoritative. *)

open Air_sim
open Air_model

type policy =
  | Priority_preemptive
      (** eq. (14): highest priority ready process; FIFO by antiquity among
          equal priorities. Lower numerical value = greater priority. *)
  | Round_robin of { quantum : int }
      (** Fair rotation with a fixed tick quantum; priorities ignored. *)

val pp_policy : Format.formatter -> policy -> unit

type wait_reason =
  | Delay                      (** TIMED_WAIT or a start delay. *)
  | Next_release               (** PERIODIC_WAIT. *)
  | On_semaphore of string
  | On_event of string
  | On_buffer of string
  | On_blackboard of string
  | On_queuing_port of string
  | Suspended

val pp_wait_reason : Format.formatter -> wait_reason -> unit

type hooks = {
  register_deadline : process:int -> Time.t -> unit;
      (** A new absolute deadline for the process' current activation —
          the PAL inserts/updates its store (paper Sect. 5.2). *)
  unregister_deadline : process:int -> unit;
  on_state_change : process:int -> Process.state -> unit;
}

val null_hooks : hooks

type t

val create :
  partition:Ident.Partition_id.t ->
  policy:policy ->
  hooks:hooks ->
  Process.spec array ->
  t

val partition : t -> Ident.Partition_id.t
val policy : t -> policy
val process_count : t -> int
val spec : t -> int -> Process.spec
val state : t -> int -> Process.state
val status : t -> int -> Process.status
(** The S(t) tuple of eq. (12). *)

val wait_reason : t -> int -> wait_reason option
val deadline_time : t -> int -> Time.t
val activations : t -> int -> int

val take_timed_out : t -> int -> bool
(** True iff the process' last wakeup was a timeout expiry; reading clears
    the flag (the APEX layer maps it to a TIMED_OUT return code). *)

(** {1 Process management operations (invoked via APEX)} *)

type op_error =
  | Not_dormant       (** START of a process that is not dormant. *)
  | Already_dormant   (** STOP of a dormant process. *)
  | Not_waiting       (** RESUME of a process that is not suspended. *)
  | Invalid_for_periodic  (** SUSPEND of a periodic process. *)
  | Not_periodic      (** PERIODIC_WAIT from a non-periodic process. *)
  | No_such_process

val pp_op_error : Format.formatter -> op_error -> unit

val start : t -> now:Time.t -> ?delay:Time.t -> int -> (unit, op_error) result
(** START / DELAYED_START: arms the first release (immediately or after
    [delay]); the activation deadline is release point + time capacity. *)

val stop : t -> int -> (unit, op_error) result
(** STOP (or STOP_SELF): dormant, deadline unregistered. *)

val suspend :
  t -> now:Time.t -> ?timeout:Time.t -> int -> (unit, op_error) result

val resume : t -> now:Time.t -> int -> (unit, op_error) result

val set_priority : t -> int -> int -> (unit, op_error) result

val periodic_wait : t -> now:Time.t -> int -> (unit, op_error) result
(** Suspends until the next release point (consecutive release points are
    separated by the period). If that point has already passed — the
    process overran — it becomes ready at the next tick with the deadline
    of the missed release point. *)

val timed_wait : t -> now:Time.t -> int -> Time.t -> (unit, op_error) result

val replenish : t -> now:Time.t -> int -> Time.t -> (unit, op_error) result
(** New deadline = now + budget (paper Fig. 6). *)

val block :
  t -> now:Time.t -> int -> wait_reason -> timeout:Time.t -> unit
(** Used by intrapartition objects and queuing ports. [timeout] is a
    relative delay; {!Time.infinity} blocks indefinitely, and a zero or
    negative timeout still blocks until explicitly woken (the APEX layer is
    responsible for polling semantics). *)

val wake : t -> now:Time.t -> int -> timed_out:bool -> unit
(** Moves a waiting process to ready. No-op on non-waiting processes. *)

val announce_ticks : t -> now:Time.t -> unit
(** Advance the kernel's view of time: wake expired delays and timeouts and
    release periodic activations (registering their deadlines). Called by
    the PAL's surrogate clock-tick announcement with the elapsed ticks
    already folded into [now] (paper Fig. 7). *)

val next_wake : t -> Time.t
(** Earliest instant at which {!announce_ticks} would change any process
    state: the minimum over waiting processes of their delay wake-up,
    next release point, or blocking-wait timeout. {!Time.infinity} when no
    timed wake is pending. Non-destructive — used by the executive to
    compute the next interesting tick for skip-ahead. *)

val has_schedulable : t -> bool
(** Whether any process is ready or running, i.e. whether {!schedule}
    would return [Some _]. Non-destructive quiescence probe. *)

val schedule_idx : t -> now:Time.t -> int
(** Select and dispatch the heir process (eq. (14) or round-robin): the
    previous running process is demoted to ready if preempted, the heir is
    marked running. [-1] when no process is schedulable. While preemption
    is locked, the lock holder remains the heir as long as it is
    schedulable. Allocation-free — the form the per-tick executive uses. *)

val schedule : t -> now:Time.t -> int option
(** {!schedule_idx} with the heir boxed as an option ([None] = no
    schedulable process). *)

val steady_heir : t -> int
(** The heir {!schedule_idx} would elect right now if that election
    changes no state: the heir is already running, so nobody is demoted
    or promoted. [-1] otherwise, and always [-1] under round-robin, whose
    every election spends quantum. Non-destructive and allocation-free.
    The executive uses it to prove a computing heir steady across a
    skipped span. *)

(** {1 Preemption locking (ARINC 653 LOCK_PREEMPTION / UNLOCK_PREEMPTION)}

    The running process may lock preemption; until it unlocks (the lock
    nests), no other process of the partition is dispatched. Blocking or
    stopping while holding the lock releases it — ARINC 653 forbids waiting
    with preemption locked, and the kernel recovers rather than deadlock
    the partition. The first scheduling level is unaffected: partition
    windows still end on time (paper Sect. 2.1 — nothing a process does
    may break temporal partitioning). *)

val lock_preemption : t -> process:int -> (int, op_error) result
(** Returns the new lock level. Fails with [Not_dormant] mapped misuse
    ([Invalid_for_periodic] is never used here): only the running process
    may lock; others get [Not_waiting]. *)

val unlock_preemption : t -> process:int -> (int, op_error) result
(** Returns the remaining lock level; [Error Not_waiting] when the caller
    does not hold the lock. *)

val preemption_locked : t -> bool

val running : t -> int option

val stop_all : t -> unit
(** Partition shutdown/restart: every process goes dormant, deadlines are
    unregistered. *)

val ready_set : t -> int list
(** Ready_m(t) of eq. (15): ready or running processes. *)

val waiters_fifo : t -> (wait_reason -> bool) -> int list
(** Waiting processes matching the predicate, in blocking order. *)

val waiters_priority : t -> (wait_reason -> bool) -> int list
(** Same, ordered by current priority (ties by blocking order). *)

val find_by_name : t -> string -> int option

val pp : Format.formatter -> t -> unit
