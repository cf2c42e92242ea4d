(** System-wide trace events.

    Every observable action of the simulated AIR module is recorded as one
    of these events in an [Air_sim.Trace.t]; experiments and the VITRAL-style
    renderer are pure functions of the trace. *)

open Air_sim
open Ident

type t =
  | Context_switch of {
      from : Partition_id.t option;
      to_ : Partition_id.t option;  (** [None] is the idle gap. *)
    }
      (** Partition Dispatcher switched the processing resources
          (Algorithm 2). *)
  | Schedule_switch_request of {
      by : Partition_id.t option;  (** [None]: operator/test harness. *)
      target : Schedule_id.t;
    }
      (** SET_MODULE_SCHEDULE accepted; effective at the end of the MTF. *)
  | Schedule_switch of { from : Schedule_id.t; to_ : Schedule_id.t }
      (** Partition Scheduler made the pending switch effective at an MTF
          boundary (Algorithm 1, lines 4–6). *)
  | Change_action of {
      partition : Partition_id.t;
      action : Schedule.change_action;
    }
      (** Pending ScheduleChangeAction applied at first dispatch after a
          switch (Algorithm 2, line 9). *)
  | Partition_mode_change of {
      partition : Partition_id.t;
      mode : Partition.mode;
    }
  | Process_state_change of {
      process : Process_id.t;
      state : Process.state;
    }
  | Process_dispatched of { process : Process_id.t }
      (** Became the running process of its partition (eq. (14)). *)
  | Deadline_registered of { process : Process_id.t; deadline : Time.t }
      (** PAL deadline store updated by an APEX primitive (Sect. 5.2). *)
  | Deadline_unregistered of { process : Process_id.t }
  | Deadline_violation of { process : Process_id.t; deadline : Time.t }
      (** Detected by the PAL surrogate clock-tick routine (Algorithm 3);
          the trace timestamp is the detection instant, [deadline] the
          violated deadline time. *)
  | Hm_error of {
      level : Error.level;
      code : Error.code;
      partition : Partition_id.t option;
      process : Process_id.t option;
      detail : string;
    }
  | Hm_process_action of {
      process : Process_id.t;
      action : Error.process_action;
    }
  | Hm_partition_action of {
      partition : Partition_id.t;
      action : Error.partition_action;
    }
  | Hm_module_action of { action : Error.module_action }
  | Port_send of { port : Port_name.t; bytes : int }
  | Port_receive of { port : Port_name.t; bytes : int }
  | Port_overflow of { port : Port_name.t }
      (** Queuing-port destination queue full; message discarded. *)
  | Memory_access of {
      partition : Partition_id.t;
      address : int;
      granted : bool;
    }
  | Application_output of { partition : Partition_id.t; line : string }
      (** A line printed by a partition application — what the prototype's
          per-partition VITRAL windows display. *)
  | Module_halt of { reason : string }
  | Fault_injected of { label : string }
      (** An externally injected fault (fault-injection campaign engine);
          [label] identifies the fault in campaign reports. *)

val pp : Format.formatter -> t -> unit

val kind : t -> int
(** Dense index of the constructor, in [\[0, Array.length labels)]. *)

val labels : string array
(** Stable kebab-case kind names (e.g. "context-switch"), indexed by
    {!kind} — the event-kind keys of observability reports. *)

val label : t -> string
(** [labels.(kind ev)]. *)

val codec : t Trace.codec
(** The packed form of every event ({!Trace.create}): time, a header with
    the kind and the small fields (partition, process and schedule indices,
    state, mode, change action), and a wide payload (deadline, byte count
    or address). Port names and output lines go to the chunk's string
    column. HM, halt and fault events, and any event whose index does not
    fit its 16-bit field, are kept boxed. *)

(** {1 Trace queries used by experiments} *)

val is_deadline_violation : t -> bool
val is_context_switch : t -> bool
val is_schedule_switch : t -> bool
val is_hm_error : t -> bool

val violation_of : t -> (Process_id.t * Time.t) option
