(** Partition scheduling tables (PSTs) with mode-based schedules.

    Implements the extended model of paper Sect. 4.1: the system holds a set
    χ = {χ_1..χ_n(χ)} of schedules (eq. (17)); each schedule χ_i carries its
    major time frame MTF_i, the per-schedule partition timing requirements
    Q_i (eq. (19)) and the time windows ω_i (eq. (20)). The original
    single-schedule system of Sect. 3 is the special case n(χ) = 1. *)

open Air_sim
open Ident

type requirement = {
  partition : Partition_id.t;  (** P^χ_(i,m). *)
  cycle : Time.t;              (** η_(i,m): activation cycle. *)
  duration : Time.t;
      (** d_(i,m): processing time owed to the partition per cycle. May be
          zero for partitions without strict time requirements (e.g. those
          running non-real-time operating systems). *)
}

type window = {
  partition : Partition_id.t;  (** P^ω_(i,j). *)
  offset : Time.t;             (** O_(i,j), relative to MTF start. *)
  duration : Time.t;           (** c_(i,j), strictly positive. *)
}

(** Restart action applied to a partition the first time it is dispatched
    after a switch to this schedule (paper Sect. 4, ScheduleChangeAction). *)
type change_action =
  | No_action
  | Warm_restart_partition
  | Cold_restart_partition

val change_action_label : change_action -> string
(** The action's keyword (["warm-restart"], …), a literal. *)

val pp_change_action : Format.formatter -> change_action -> unit

type t = {
  id : Schedule_id.t;
  name : string;
  mtf : Time.t;                    (** MTF_i. *)
  requirements : requirement list; (** Q_i. *)
  windows : window list;           (** ω_i, sorted by offset. *)
  change_actions : (Partition_id.t * change_action) list;
      (** Per-partition restart actions; partitions absent from the list get
          [No_action]. *)
}

val make :
  ?change_actions:(Partition_id.t * change_action) list ->
  id:Schedule_id.t ->
  name:string ->
  mtf:Time.t ->
  requirements:requirement list ->
  window list ->
  t
(** Windows are sorted by offset. Structural validity (eq. (21)–(23)) is
    checked separately by {!Validate}; [make] only rejects obviously
    malformed input (non-positive MTF or window durations). *)

val change_action_for : t -> Partition_id.t -> change_action

val requirement_for : t -> Partition_id.t -> requirement option

val partitions : t -> Partition_id.t list
(** Partitions appearing in Q_i, in order of first appearance. *)

val windows_of : t -> Partition_id.t -> window list

val total_window_time : t -> Partition_id.t -> Time.t
(** Σ c_(i,j) over the partition's windows (left side of eq. (8)). *)

val utilization : t -> float
(** Fraction of the MTF covered by windows. *)

val window_at : t -> Time.t -> window option
(** [window_at s off] is the window covering MTF offset [off], if any
    ([None] during idle gaps). [off] is taken modulo the MTF. *)

(** {1 Preemption-point table}

    The AIR Partition Scheduler (Algorithm 1) does not scan windows at every
    tick; it consults a precompiled table of partition preemption points.
    Entry [j] holds the MTF offset at which the heir changes and the heir
    itself — [None] encodes an idle gap between windows. *)

type preemption_point = { tick : Time.t; heir : Partition_id.t option }

val preemption_table : t -> preemption_point array
(** Offsets are strictly increasing, starting at tick 0. *)

val pp : Format.formatter -> t -> unit
val pp_window : Format.formatter -> window -> unit
val pp_requirement : Format.formatter -> requirement -> unit
