(** APEX — the ARINC 653 Application Executive interface (paper Sect. 2.3).

    Each partition sees one APEX instance bound to its own POS kernel,
    intrapartition objects and PAL (the Portable APEX of the paper exploits
    PAL functions so the same service layer works over any POS). System
    partitions additionally reach the mode-based schedule services of
    ARINC 653 Part 2. The APEX coordinates with the AIR Health Monitor upon
    error detection (Sect. 2.3) and keeps the PAL deadline store updated
    through the kernel's hooks (Sect. 5.2).

    Services are expressed against an environment of closures supplied by
    [Air.System], which owns every component. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc

(** ARINC 653 service return codes (the subset the simulation exercises). *)
type return_code =
  | No_error
  | No_action       (** Request had no effect (e.g. same schedule). *)
  | Not_available   (** Resource empty/full in polling mode. *)
  | Invalid_param
  | Invalid_config
  | Invalid_mode    (** Service not allowed in the caller's present state. *)
  | Timed_out

val pp_return_code : Format.formatter -> return_code -> unit
val return_code_equal : return_code -> return_code -> bool

(** Uniform service outcome for the script interpreter. *)
type outcome =
  | Done of return_code
  | Msg of bytes * return_code  (** Completed with a payload. *)
  | Blocked
      (** The calling process was moved to the waiting state; the service
          completes when the kernel wakes it. *)

val pp_outcome : Format.formatter -> outcome -> unit

type env = {
  partition : Partition.t;
  kernel : Kernel.t;
  intra : Intra.t;
  router : Router.t;
  lane : Pmk_mc.t;
      (** The PMK lanes driving this module — SET_MODULE_SCHEDULE
          broadcasts the switch request to every lane. *)
  now : unit -> Time.t;
  emit : Event.t -> unit;
  report_process_error : process:int -> Error.code -> detail:string -> unit;
  report_partition_error : Error.code -> detail:string -> unit;
  notify_port_delivery : Router.port -> unit;
      (** Called for each destination a queuing send delivered to, so the
          system layer can wake a receiver blocked on it (possibly in
          another partition). *)
  mode : unit -> Partition.mode;
  set_mode : Partition.mode -> unit;
}

(** {1 Time management} *)

val get_time : env -> Time.t

val timed_wait : env -> process:int -> Time.t -> outcome

val periodic_wait : env -> process:int -> outcome

val replenish : env -> process:int -> Time.t -> outcome
(** New deadline = now + budget (paper Fig. 6); updates the PAL store via
    the kernel hook. *)

(** {1 Process management} *)

val start : env -> process:int -> outcome
val delayed_start : env -> process:int -> delay:Time.t -> outcome
val stop : env -> process:int -> outcome
val stop_self : env -> process:int -> outcome
val suspend_self : env -> process:int -> timeout:Time.t -> outcome
val suspend : env -> process:int -> outcome
val resume : env -> process:int -> outcome
val set_priority : env -> process:int -> priority:int -> outcome
val get_process_status : env -> process:int -> (Process.status, return_code) result

(** {1 Partition management} *)

type partition_status = {
  operating_mode : Partition.mode;
  partition_kind : Partition.kind;
}

val get_partition_status : env -> partition_status
val set_partition_mode : env -> Partition.mode -> outcome

(** {1 Interpartition communication}

    Ports are passed by their router ID ({!Air_ipc.Router.resolve}), bound
    once when the module boots as APEX binds a [PORT_ID] at port creation.
    An ID no port has (a script naming a port the network lacks) yields
    [Invalid_config] and no event. Events name the port. *)

val write_sampling_message :
  env -> process:int -> port:Router.port -> bytes -> outcome
val read_sampling_message : env -> process:int -> port:Router.port -> outcome
(** [Msg] outcome carries the payload; validity is reported through the
    return code: [No_error] when fresh, [Invalid_config] never — staleness
    maps to [Timed_out] per the ARINC 653 convention of signalling outdated
    sampling data. An empty slot yields [Not_available]. *)

val send_queuing_message :
  env -> process:int -> port:Router.port -> bytes -> outcome
val receive_queuing_message :
  env -> process:int -> port:Router.port -> timeout:Time.t -> outcome

(** {1 Intrapartition communication} *)

val wait_semaphore : env -> process:int -> name:string -> timeout:Time.t -> outcome
val signal_semaphore : env -> process:int -> name:string -> outcome
val wait_event : env -> process:int -> name:string -> timeout:Time.t -> outcome
val set_event : env -> process:int -> name:string -> outcome
val reset_event : env -> process:int -> name:string -> outcome
val display_blackboard : env -> process:int -> name:string -> bytes -> outcome
val clear_blackboard : env -> process:int -> name:string -> outcome
val read_blackboard : env -> process:int -> name:string -> timeout:Time.t -> outcome
val send_buffer :
  env -> process:int -> name:string -> bytes -> timeout:Time.t -> outcome
val receive_buffer : env -> process:int -> name:string -> timeout:Time.t -> outcome

(** {1 Health monitoring} *)

val report_application_message : env -> process:int -> string -> outcome
(** Application output — one line in the partition's VITRAL window. *)

val raise_application_error : env -> process:int -> string -> outcome

(** {1 Mode-based schedules (ARINC 653 Part 2, paper Sect. 4.2)} *)

val set_module_schedule : env -> process:int -> Ident.Schedule_id.t -> outcome
(** Only system partitions are authorized; unauthorized requests raise an
    [Illegal_request] process-level error and return [Invalid_mode]. The
    switch becomes effective at the start of the next MTF. *)

type schedule_status = {
  time_of_last_schedule_switch : Time.t;
  current_schedule : Ident.Schedule_id.t;
  next_schedule : Ident.Schedule_id.t;
}

val get_module_schedule_status : env -> schedule_status
val pp_schedule_status : Format.formatter -> schedule_status -> unit
