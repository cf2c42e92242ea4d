(** Process behaviour scripts.

    The prototype's partitions run mockup applications (paper Sect. 6);
    here a process body is a small program over simulated CPU time and APEX
    service calls, interpreted one tick at a time by [Air.System]. Scripts
    are plain data — the POS library defines the language, the AIR core
    executes it against the real APEX services. *)

open Air_sim

type action =
  | Compute of int
      (** Consume the given number of CPU ticks. *)
  | Periodic_wait
      (** APEX PERIODIC_WAIT: suspend until the next release point. *)
  | Timed_wait of Time.t
      (** APEX TIMED_WAIT: suspend for the given delay. *)
  | Replenish of Time.t
      (** APEX REPLENISH: postpone the deadline to now + budget. *)
  | Write_sampling of string * string
      (** Port name, message payload. *)
  | Read_sampling of string
  | Send_queuing of string * string
  | Receive_queuing of string * Time.t
      (** Port name, timeout (0 polls, {!Air_sim.Time.infinity} blocks). *)
  | Wait_semaphore of string * Time.t
  | Signal_semaphore of string
  | Wait_event of string * Time.t
  | Set_event of string
  | Reset_event of string
  | Display_blackboard of string * string
  | Clear_blackboard of string
  | Read_blackboard of string * Time.t
  | Send_buffer of string * string * Time.t
  | Receive_buffer of string * Time.t
  | Read_memory of int
      (** Load from the given address — exercises spatial partitioning. *)
  | Write_memory of int
  | Log of string
      (** One line of application output (a VITRAL window line). *)
  | Raise_application_error of string
  | Request_schedule of int
      (** APEX SET_MODULE_SCHEDULE with the given schedule index; only
          system partitions are authorized. *)
  | Log_schedule_status
      (** APEX GET_MODULE_SCHEDULE_STATUS, logged as application output. *)
  | Suspend_self of Time.t
  | Resume_process of string
  | Start_other of string
  | Stop_other of string
  | Stop_self
  | Disable_interrupts
      (** What a non-paravirtualized guest kernel might attempt; the PMK
          traps it (paper Sect. 2.5). *)
  | Lock_preemption
      (** APEX LOCK_PREEMPTION: no other process of this partition runs
          until the matching unlock; partition windows still end on time. *)
  | Unlock_preemption

type on_end =
  | Repeat  (** Restart the body — an infinite loop. *)
  | Stop    (** Process goes dormant after the last action. *)

type t = { body : action array; on_end : on_end }

val make : ?on_end:on_end -> action list -> t
(** [on_end] defaults to [Repeat]. *)

val empty : t
(** A process that immediately stops. *)

val periodic_body : action list -> t
(** The idiomatic periodic process: body followed by {!Periodic_wait},
    repeated forever. *)

val pp_action : Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit
