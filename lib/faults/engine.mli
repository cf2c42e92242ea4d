(** Deterministic campaign execution.

    The engine owns the whole lifecycle of one campaign: build the target
    from the caller's factory, expand the spec into a concrete plan
    ({!Campaign.plan} against the target's initial-schedule MTF), advance
    the target from one due injection to the next, applying each through
    the fault hooks of [Air.System] / [Ipc.Router] / [Air.Cluster],
    re-inject delayed messages when their delay expires, and finally match
    every injection against the Health Monitor record in the trace, which
    must hold the whole run for a detection to be matched.

    A fault-free {e baseline} of the same target is run over the same
    horizon; the containment oracle uses it as the reference for mode and
    output-continuity checks. Nothing in the execution path draws
    randomness — all of it is spent in planning — so a spec and a factory
    determine the run bit for bit ({!fingerprint}, {!reproducible}). *)

open Air_sim

(** What a campaign runs against: a single module, or a group of modules
    on a cluster bus advanced by its own executive. A group is observed
    through its module 0: faults other than [Link_fault] apply to that
    module, at instants the executive has already advanced to (every
    [advance] return is a synchronization point), and link faults strike
    the cluster's bus. *)
type target =
  | Module of Air.System.t
  | Driver of {
      cluster : Air.Cluster.t;
      advance : int -> unit;  (** Advance the whole group by n ticks. *)
    }

val group : advance:(int -> unit) -> Air.Cluster.t -> target
(** The group target over [cluster], advanced by [advance] — the hook
    through which the parallel fleet engine ([Air_fleet]) runs campaigns
    over whole constellations without this engine depending on it. *)

val cluster : Air.Cluster.t -> target
(** The group advanced by {!Air.Cluster.run}: the sequential reference a
    fleet campaign is compared against. *)

type applied =
  | Applied  (** The fault took effect. *)
  | Absorbed of string
      (** Applied but absorbed by construction — a bit flip landing inside
          the partition's own region, a message fault finding the channel
          empty. Nothing to detect. *)
  | Failed of string  (** The injection itself was rejected (bad name…). *)

val pp_applied : Format.formatter -> applied -> unit

type outcome = {
  fault : Fault.t;
  at : Time.t;  (** Planned injection tick. *)
  applied : applied;
  detected_at : Time.t option;
      (** Trace time of the first Health Monitor error matching this fault
          (same code, same blame scope), each HM record consumed at most
          once across the campaign. [None] for every fault when the
          target's trace dropped its head (a bounded trace that evicted
          events), which {!Oracle.check} then reports instead of judging
          the campaign. *)
  latency : int option;  (** [detected_at - injection instant]. *)
  action : string option;
      (** Rendered HM action event that answered the detection. *)
  flows : string list;
      (** Correlation ids ({!Air_obs.Causal.to_string}) of the stamped
          in-flight messages this fault touched — port faults name the
          perturbed message, link faults every transfer struck on the bus.
          [[]] when the target has no flow tracker, the fault type does not
          touch messages, or the struck message predated the tracker. *)
}

type run = {
  spec : Campaign.spec;
  mtf : int;
  plan : Campaign.injection list;
  target : target;
  baseline : target;
  outcomes : outcome list;
  fingerprint : string;
      (** {!Air.Observe.digest} of the target's whole observation — the
          module's ({!Air.Observe.system}), or for a group every module's
          and the bus ({!Air.Observe.cluster}) — plus the outcomes: equal
          fingerprints mean indistinguishable runs. *)
}

val execute : ?turbo:bool -> make:(unit -> target) -> Campaign.spec -> run
(** [make] must return a fresh, equivalent target on every call. It is
    called twice: the campaign target, then the baseline, which runs
    before the target is fingerprinted. A module target advances through
    {!Air_exec.Engine}: in [Adaptive] (skip-ahead) mode when [turbo]
    (default [false]) is set, in [Per_tick] mode otherwise. Every planned
    injection tick bounds a span, so the faults land on exactly the
    planned instants and the turbo run — fingerprint included — is
    bit-identical to the per-tick one. Group targets pace themselves. *)

val observed : target -> Air.System.t
(** The module whose trace the campaign is judged against. *)

val system : run -> Air.System.t
val baseline_system : run -> Air.System.t

val detection_latencies : run -> Air_obs.Quantile.t
(** All detection latencies of the run, as a quantile sketch. *)

val reproducible : ?turbo:bool -> make:(unit -> target) -> Campaign.spec -> bool
(** Run the spec's target twice, each from a fresh [make ()] with its
    injections and detection matching, and compare the two fingerprints —
    the determinism clause of the AIR invariants. [make] is called twice,
    once per target; no baseline is built, since a fingerprint covers only
    the target and the outcomes. When [make]'s targets share no state,
    each fingerprint equals the one {!execute} reports for the spec. *)
