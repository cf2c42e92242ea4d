(** Single-level priority preemptive scheduling — the related-work baseline.

    Audsley & Wellings' response-time analysis of APEX applications led them
    to propose abandoning two-level scheduling in favour of a single-level
    priority preemptive scheduler (paper Sect. 7, ref. [4]). This module
    simulates that alternative over the same task sets so experiment E8 can
    measure what the paper's architecture trades (raw schedulability) for
    what it gains (fault containment): under a babbling high-priority task,
    a single-level system starves every lower-priority task regardless of
    origin, while TSP confines the damage to the faulty task's partition. *)

open Air_sim
open Air_model
open Ident

type task = {
  owner : Partition_id.t;  (** Origin partition (for containment metrics). *)
  spec : Process.spec;
  babbling : bool;
      (** Fault model: the task never completes — it consumes every tick
          it is granted (a runaway loop). *)
}

val task : ?babbling:bool -> owner:Partition_id.t -> Process.spec -> task

type task_stats = {
  task_index : int;
  task_owner : Partition_id.t;
  releases : int;
  completions : int;
  deadline_misses : int;
      (** Activations whose deadline passed before completion (counted once
          per activation). *)
  worst_response : Time.t option;
      (** Largest observed completion − release; [None] if never completed. *)
}

type stats = {
  horizon : Time.t;
  per_task : task_stats list;
  total_misses : int;
  starved_tasks : int;  (** Tasks that never completed an activation. *)
}

val simulate : task list -> horizon:Time.t -> stats
(** Tick-accurate single-level preemptive priority simulation (lower
    numerical priority wins; FIFO among equals). Periodic tasks release at
    t = 0, T, 2T…; aperiodic tasks release once at t = 0. Overrunning jobs
    keep executing (the new activation is queued behind). *)

val misses_outside : stats -> Partition_id.t -> int
(** Deadline misses suffered by tasks NOT owned by the given partition —
    the containment metric: zero means faults in that partition did not
    propagate. *)
