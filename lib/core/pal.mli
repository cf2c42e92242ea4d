(** AIR POS Adaptation Layer (paper Sect. 2.2 and 5).

    The PAL wraps each partition's operating system. For the timeliness
    features of the paper it plays two roles:

    - it owns the partition's {!Deadline_store}, exposing the private
      register/unregister interfaces the APEX primitives use (Sect. 5.2);
    - its surrogate clock-tick announcement routine (Fig. 7, Algorithm 3)
      first announces the elapsed ticks to the native POS and then verifies
      the earliest deadline(s), reporting violations to health monitoring
      with O(1) retrieval per check. *)

open Air_sim
open Air_model

type t

val create :
  ?recorder:Air_obs.Span.t ->
  ?telemetry:Air_obs.Telemetry.t ->
  ?store:Deadline_store.impl ->
  partition:Ident.Partition_id.t ->
  unit ->
  t
(** [store] defaults to the paper's sorted linked list. [recorder], when
    given, receives a [pal.catch-up] instant whenever a surrogate
    announcement covers more than one elapsed tick (the wake-up after a
    preemption gap) and a [pal.deadline-miss] instant (with the process as
    sub-lane) per detected violation, on the partition's track.
    [telemetry], when given, receives the same two signals as catch-up
    depth and deadline-miss samples of the partition's frame.

    The PAL counts nothing itself: a module's [pal.*] metrics are views of
    its event counts and of {!deadline_count}. *)

(** {1 Deadline register/unregister interface (APEX-facing)} *)

val register_deadline : t -> process:int -> Time.t -> unit
val unregister_deadline : t -> process:int -> unit
val earliest_deadline : t -> (int * Time.t) option

val min_deadline : t -> Time.t
(** The earliest deadline time alone ({!Air_sim.Time.infinity} when no
    deadline is registered) — allocation-free, used by the executive both
    as the per-tick violation fast path and to bound quiescent spans. *)

val deadline_of : t -> process:int -> Time.t option
val deadline_count : t -> int
(** Deadlines currently registered — the [pal.store_size.pN] gauge. *)

val clear_deadlines : t -> unit
(** Partition shutdown or restart. *)

type violation = { process : int; deadline : Time.t }

val announce_ticks :
  t ->
  now:Time.t ->
  elapsed:Time.t ->
  announce_to_pos:(now:Time.t -> elapsed:Time.t -> unit) ->
  violation list
(** Algorithm 3: invoke the native POS clock-tick announcement with the
    elapsed tick count (and the current instant, so the POS callback need
    not close over a clock), then check deadlines in ascending order until
    one that has not been violated (strictly: a deadline d is violated when
    [d < now], eq. (24)); each violated entry is removed from the store and
    returned for health-monitoring reporting, in detection order. The
    no-violation case is O(1) and allocation-free. *)

val violations_now : t -> now:Time.t -> violation list
(** Pure query of the store — the V(t) set of eq. (24) restricted to this
    partition — without removing entries or announcing ticks. *)
