(** Response-time analysis of processes inside a partition.

    Combines the classic fixed-priority demand recurrence with the
    partition's exact supply-bound function: the worst-case response time of
    process i is the smallest R such that the partition is guaranteed at
    least [C_i + Σ_{j ∈ hep(i)} ⌈R/T_j⌉·C_j] ticks of service in every
    interval of length R, where hep(i) are the processes of higher {e or
    equal} priority (under eq. (14)'s FIFO-among-equals rule an
    equal-priority peer's older activation runs first, so ties interfere
    symmetrically). A process is schedulable when R ≤ D.

    Aperiodic and sporadic processes contribute interference through their
    minimum inter-arrival time; processes without WCET ([wcet = 0]) are
    assumed free. *)

open Air_sim
open Air_model
open Ident

type verdict = {
  process : int;
  response_time : Time.t option;
      (** [None]: the recurrence diverged (unschedulable or starved). *)
  deadline : Time.t;
  schedulable : bool;
}

val pp_verdict : Format.formatter -> verdict -> unit

val analyze :
  Schedule.t -> Partition_id.t -> Process.spec array -> verdict list
(** One verdict per process, in task-set order. Raises [Invalid_argument]
    if the partition has no requirement in the schedule. *)

val breakdown_utilization :
  Schedule.t -> Partition_id.t -> Process.spec array -> float
(** Largest uniform scaling factor of all WCETs that keeps the task set
    schedulable (binary search, 1e-2 precision) — the classic sensitivity
    metric for experiment E11. *)
