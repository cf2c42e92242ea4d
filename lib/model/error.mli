(** Health-monitoring error taxonomy (paper Sect. 2.4 and 5).

    ARINC 653 classifies each detected error by a code and a level; the level
    decides who handles it: process-level errors invoke an application error
    handler, partition-level errors trigger a response action defined at
    integration time, module-level errors may stop or reinitialize the whole
    system. *)

type code =
  | Deadline_missed        (** Process exceeded its deadline (paper Sect. 5). *)
  | Application_error      (** Raised explicitly by the application. *)
  | Numeric_error
  | Illegal_request        (** Invalid service request (e.g. unauthorized schedule switch). *)
  | Stack_overflow
  | Memory_violation       (** Spatial-partitioning breach caught by the MMU. *)
  | Hardware_fault
  | Power_failure
  | Configuration_error    (** Detected at initialization. *)
  | Temporal_degradation
      (** A telemetry watchdog threshold crossed at frame close (slack,
          jitter, catch-up depth or deadline-miss count) — degradation
          detected before or alongside a hard fault. *)

val code_equal : code -> code -> bool
val code_label : code -> string
(** The code's keyword (["deadline-missed"], …), a literal. *)

val pp_code : Format.formatter -> code -> unit
val all_codes : code list

type level =
  | Process_level    (** Impacts one or more processes in the partition. *)
  | Partition_level  (** Impacts the entire partition. *)
  | Module_level     (** Impacts the entire system. *)

val level_equal : level -> level -> bool
val pp_level : Format.formatter -> level -> unit

(** Recovery actions available for process-level errors (paper Sect. 5). *)
type process_action =
  | Ignore_error
      (** Log the error, take no action. *)
  | Log_then of int * process_action
      (** Log the error the given number of times before acting on it. *)
  | Restart_process
      (** Stop the faulty process and reinitialize it from its entry point. *)
  | Stop_process
      (** Stop the faulty process, assuming the partition detects and
          recovers. *)
  | Stop_partition_of_process
  | Restart_partition_of_process of Partition.mode
      (** Restart the enclosing partition in [Warm_start] or [Cold_start]. *)

val pp_process_action : Format.formatter -> process_action -> unit

type partition_action =
  | Partition_ignore
  | Partition_idle        (** Shut the partition down. *)
  | Partition_warm_restart
  | Partition_cold_restart

val pp_partition_action : Format.formatter -> partition_action -> unit

type module_action =
  | Module_ignore
  | Module_shutdown  (** Stop the entire system. *)
  | Module_reset     (** Reinitialize the entire system. *)

val pp_module_action : Format.formatter -> module_action -> unit
