(** Containment oracle: replay a campaign's trace against the AIR
    invariants.

    The oracle is a pure function of the completed {!Engine.run} (campaign
    trace + fault-free baseline of the same target). It blames every
    disturbance on the scopes of the injected faults ({!Fault.scope}) and
    reports a finding for anything the injected faults cannot explain:

    - {b deadline containment} — deadline misses only in partitions a
      fault targeted;
    - {b HM containment} — partition- and process-level HM errors only in
      targeted partitions; module-level HM errors only under module-scoped
      faults;
    - {b mode containment} — untargeted partitions end in the same mode as
      in the baseline, and the module only halts under a module-scoped
      fault;
    - {b output continuity} — untargeted partitions keep producing their
      application output (at least 900‰ of the baseline count, less two
      lines of MTF-boundary slack);
    - {b action matching} — every HM error event in the trace is answered
      by exactly the action the configured HM tables resolve to, verified
      by replaying the table lookup (including stateful [Log_then]
      thresholds) over the trace;
    - {b interference-curve containment} — under a bandwidth-hog
      campaign, every partition's throttled ticks per telemetry frame
      stay within the modeled slowdown curve
      ([Contention.max_stall_per_access] times its own charged accesses),
      so victims on other lanes degrade only as the model allows;
    - {b guaranteed detection} — faults that must be caught (wild
      accesses, injected module errors, budget-blowing bandwidth hogs)
      were caught. *)

type finding = {
  check : string;  (** Stable kebab-case name of the violated invariant. *)
  detail : string;
}

type verdict = {
  findings : finding list;
  checks : int;  (** Individual assertions evaluated. *)
}

val passed : verdict -> bool

val check : Engine.run -> verdict

val pp_finding : Format.formatter -> finding -> unit
