(** The process model of eq. (10)–(15).

    Each partition holds a task set τ_m; each process τ_m,q carries the
    static attributes ⟨T, D, p, C⟩ of eq. (11) and the runtime status
    S(t) = ⟨D'(t), p'(t), St(t)⟩ of eq. (12). *)

open Air_sim

type state =
  | Dormant  (** Ineligible: not started, or stopped (eq. (13)). *)
  | Ready    (** Able to execute. *)
  | Running  (** Currently executing — at most one per partition. *)
  | Waiting
      (** Blocked on a delay, a semaphore, the next period, a message, or
          suspended by another process. *)

val state_equal : state -> state -> bool
val pp_state : Format.formatter -> state -> unit

type periodicity =
  | Periodic of Time.t
      (** Period T: consecutive release points are separated by T. *)
  | Aperiodic
      (** No period; activated once when started (T = ∞ in the ARINC 653
          convention). *)
  | Sporadic of Time.t
      (** Minimum inter-arrival time: T is a lower bound between
          consecutive activations. *)

type spec = {
  name : string;
  periodicity : periodicity;
  time_capacity : Time.t;
      (** Relative deadline D: the absolute deadline of an activation is its
          release point plus [time_capacity]. {!Time.infinity} means the
          process has no deadlines (D = ∞, eq. (11)). *)
  wcet : Time.t;
      (** Worst-case execution time C — the model addition the paper makes
          for schedulability analysis; informational at runtime. *)
  base_priority : int;
      (** p: lower numerical values represent greater priorities (paper
          convention, Sect. 3.3). *)
}

val spec :
  ?periodicity:periodicity ->
  ?time_capacity:Time.t ->
  ?wcet:Time.t ->
  ?base_priority:int ->
  string ->
  spec
(** Convenience constructor; defaults: aperiodic, no deadline, [wcet = 0]
    (unknown), priority 10. *)

val has_deadline : spec -> bool
(** False iff D = ∞; the deadline-violation set V(t) of eq. (24) only ranges
    over processes with deadlines. *)

type status = {
  deadline_time : Time.t;  (** D'(t): absolute deadline of the current activation. *)
  current_priority : int;  (** p'(t). *)
  state : state;           (** St(t). *)
}

val initial_status : spec -> status
(** Dormant, base priority, no deadline armed. *)
