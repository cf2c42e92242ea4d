(** Deterministic campaign execution.

    The engine owns the whole lifecycle of one campaign: build the target
    from the caller's factory, expand the spec into a concrete plan
    ({!Campaign.plan} against the target's initial-schedule MTF), advance
    the target tick by tick applying due injections through the fault hooks
    of [Air.System] / [Ipc.Router] / [Air.Cluster], re-inject delayed
    messages when their delay expires, and finally match every injection
    against the Health Monitor record in the trace.

    A fault-free {e baseline} of the same target is run over the same
    horizon; the containment oracle uses it as the reference for mode and
    output-continuity checks. Nothing in the execution path draws
    randomness — all of it is spent in planning — so a spec and a factory
    determine the run bit for bit ({!fingerprint}, {!reproducible}). *)

open Air_sim

(** A custom execution driver: anything that can advance simulated time
    and absorb link faults — the hook through which the parallel fleet
    engine ([Air_fleet]) runs campaigns over whole constellations without
    this engine depending on it. Faults other than [Link_fault] apply to
    [d_system], the observed module, at instants the engine has already
    advanced to (every [d_advance] return is a synchronization point). *)
type driver_ops = {
  d_system : Air.System.t;  (** Observed module (verdicts, redeliveries). *)
  d_advance : int -> unit;  (** Advance the whole target by n ticks. *)
  d_link_fault : Air.Cluster.bus_fault -> Air_obs.Causal.id list option;
      (** Apply a bus fault; [None] when nothing was in flight
          (absorbed), [Some flows] the touched correlation ids. *)
}

(** What a campaign runs against: a single module, a cluster observed
    through one of its modules (faults other than [Link_fault] apply to the
    observed module), or a custom driver. *)
type target =
  | Module of Air.System.t
  | Cluster of Air.Cluster.t * int  (** Observed module index. *)
  | Driver of driver_ops

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
          once across the campaign. *)
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
      (** Digest of the observed trace (every retained event with its
          instant), telemetry frames, HM counters, final modes and
          outcomes — equal fingerprints mean indistinguishable runs. *)
}

val execute : ?turbo:bool -> make:(unit -> target) -> Campaign.spec -> run
(** [make] must return a fresh, equivalent target on every call (it is
    called twice: campaign + baseline). [turbo] (default [false]) drives
    module targets through the skip-ahead executive
    ({!Air_exec.Engine}): every planned injection tick bounds a span, so
    the faults land on exactly the planned instants and the run —
    fingerprint included — is bit-identical to the per-tick one. Cluster
    targets always run per-tick; driver targets pace themselves. *)

val observed : target -> Air.System.t
(** The module whose trace the campaign is judged against. *)

val system : run -> Air.System.t
val baseline_system : run -> Air.System.t

val detection_latencies : run -> Air_obs.Quantile.t
(** All detection latencies of the run, as a quantile sketch. *)

val reproducible : ?turbo:bool -> make:(unit -> target) -> Campaign.spec -> bool
(** Execute the spec twice against fresh targets and compare fingerprints —
    the determinism clause of the AIR invariants. *)
