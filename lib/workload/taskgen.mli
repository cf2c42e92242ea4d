(** Synthetic partitioned task-set generation (experiments E8 and E11).

    UUniFast utilizations, log-uniform harmonic periods, rate-monotonic
    priorities, implicit deadlines. Produces both the model-level partitions
    (with one compute-loop script per process) and the per-partition timing
    requirements ⟨η, d⟩ from which a PST can be synthesized. *)

open Air_sim
open Air_model
open Air_pos

type t = {
  partitions : (Partition.t * Script.t list) list;
  requirements : Schedule.requirement list;
}

val generate :
  ?procs_per_partition:int ->
  ?utilization:float ->
  Rng.t ->
  n_partitions:int ->
  t
(** [utilization] (default 0.5) is the total system utilization, split
    evenly across partitions and by UUniFast across each partition's
    processes. Each partition's cycle is its shortest process period; its
    duration is the partition utilization times the cycle, rounded up. *)

val with_babbling : t -> partition:int -> t
(** Replace the first process of the given partition (0-based) with a
    babbling variant: highest priority, a compute loop that never yields —
    the fault model of experiment E8. *)

val babbling_name : string
