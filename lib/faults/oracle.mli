(** The one trace oracle: every invariant that judges a recorded trace.

    {!replay} walks a trace against the configuration the module was built
    with and asserts the AIR paper's temporal and IPC claims:

    - {b window conformance} ([window-conformance]) — no partition holds
      the processor outside a time window of the schedule in force (eq.
      (20): the dispatcher only grants the processor per the PST);
    - {b MTF-boundary switches} ([mtf-boundary]) — a mode-based schedule
      switch becomes effective only at the start of a major time frame
      (Algorithm 1, lines 3–7);
    - {b change-action delivery} ([change-action]) — a schedule's
      [ScheduleChangeAction] is applied exactly once, at the partition's
      first dispatch after the switch (Sect. 4.3);
    - {b deadline supervision} ([deadline-supervision]) — every deadline
      violation detected by the PAL (Algorithm 3) reaches the Health
      Monitor as a [Deadline_missed] process-level error;
    - {b IPC conservation} ([ipc-conservation]) — a queuing destination
      port never hands out more messages than were delivered to it (sends
      less overflows, plus injections), and a sampling destination is
      never read before it was ever written. An applied port fault of a
      campaign moves the count as the router did: a duplicate adds a
      message unless the queue is full, a loss or a delay removes one.

    {!check} judges a completed campaign ({!Engine.run}: campaign trace
    and fault-free baseline of the same target). It runs the replay over
    the campaign trace, in the same walk as the event checks below, and
    blames every disturbance on the scopes of the injected faults
    ({!Fault.scope}), reporting what they cannot explain:

    - {b deadline containment} ([deadline-containment]) — deadline misses
      only in partitions a fault targeted;
    - {b HM containment} ([hm-containment]) — partition- and
      process-level HM errors only in targeted partitions; module-level HM
      errors only under module-scoped faults;
    - {b action matching} ([action-matching]) — every HM error event
      answered by an action event is answered by exactly the action the
      configured HM tables resolve to, verified by replaying the table
      lookup (including stateful [Log_then] thresholds) over the trace;
    - {b mode containment} ([mode-containment], [halt-containment]) —
      untargeted partitions end in the same mode as in the baseline, and
      the module only halts under a module-scoped fault;
    - {b output continuity} ([output-continuity]) — untargeted partitions
      keep producing their application output (at least 900‰ of the
      baseline count, less two lines of MTF-boundary slack);
    - {b interference-curve containment} ([interference-curve]) — under
      a bandwidth-hog campaign, every partition's throttled ticks per
      telemetry frame stay within the modeled slowdown curve
      ([Contention.max_stall_per_access] times its own charged accesses),
      so victims on other lanes degrade only as the model allows;
    - {b guaranteed detection} ([detection]) — faults that must be caught
      (wild accesses, injected module errors, budget-blowing bandwidth
      hogs) were caught.

    The replay rebuilds its state from tick 0: a bounded trace that has
    dropped events yields one [replay] finding instead. So does a campaign
    whose target or baseline trace has ({!check} then judges nothing else:
    its walks read both traces from tick 0, and the engine matched no
    detection), so a campaign that outgrows its module's trace capacity
    needs [trace_capacity = None] to be judged. *)

open Air_sim
open Air_model

type finding = {
  check : string;  (** Stable kebab-case name of the violated invariant. *)
  detail : string;
}

type verdict = {
  findings : finding list;
      (** In trace order, followed by the end-of-run checks. *)
  checks : int;  (** Individual assertions evaluated. *)
}

val passed : verdict -> bool

val check : Engine.run -> verdict

val replay :
  Air.System.config ->
  until:Time.t ->
  outcomes:Engine.outcome list ->
  Event.t Trace.t ->
  finding list
(** [replay cfg ~until ~outcomes trace] replays [trace] against [cfg]'s
    scheduling tables (from its initial schedule) and port network, the
    last window-conformance segment ending at [until]. [outcomes] are the
    fault outcomes of the run in execution order, each paired with the
    [Fault_injected] event its injection recorded; [[]] for a run without
    faults. Raises [Invalid_argument] on a configuration without
    schedules, with sparse schedule identifiers or with an initial
    schedule out of range. *)

val pp_finding : Format.formatter -> finding -> unit
