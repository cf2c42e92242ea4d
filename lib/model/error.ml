type code =
  | Deadline_missed
  | Application_error
  | Numeric_error
  | Illegal_request
  | Stack_overflow
  | Memory_violation
  | Hardware_fault
  | Power_failure
  | Configuration_error
  | Temporal_degradation

let all_codes =
  [ Deadline_missed; Application_error; Numeric_error; Illegal_request;
    Stack_overflow; Memory_violation; Hardware_fault; Power_failure;
    Configuration_error; Temporal_degradation ]

let code_equal a b =
  match (a, b) with
  | Deadline_missed, Deadline_missed
  | Application_error, Application_error
  | Numeric_error, Numeric_error
  | Illegal_request, Illegal_request
  | Stack_overflow, Stack_overflow
  | Memory_violation, Memory_violation
  | Hardware_fault, Hardware_fault
  | Power_failure, Power_failure
  | Configuration_error, Configuration_error
  | Temporal_degradation, Temporal_degradation ->
    true
  | ( ( Deadline_missed | Application_error | Numeric_error | Illegal_request
      | Stack_overflow | Memory_violation | Hardware_fault | Power_failure
      | Configuration_error | Temporal_degradation ),
      _ ) ->
    false

let code_label = function
  | Deadline_missed -> "deadline-missed"
  | Application_error -> "application-error"
  | Numeric_error -> "numeric-error"
  | Illegal_request -> "illegal-request"
  | Stack_overflow -> "stack-overflow"
  | Memory_violation -> "memory-violation"
  | Hardware_fault -> "hardware-fault"
  | Power_failure -> "power-failure"
  | Configuration_error -> "configuration-error"
  | Temporal_degradation -> "temporal-degradation"

let pp_code ppf c = Format.pp_print_string ppf (code_label c)

type level = Process_level | Partition_level | Module_level

let level_equal a b =
  match (a, b) with
  | Process_level, Process_level
  | Partition_level, Partition_level
  | Module_level, Module_level ->
    true
  | (Process_level | Partition_level | Module_level), _ -> false

let pp_level ppf l =
  Format.pp_print_string ppf
    (match l with
    | Process_level -> "process"
    | Partition_level -> "partition"
    | Module_level -> "module")

type process_action =
  | Ignore_error
  | Log_then of int * process_action
  | Restart_process
  | Stop_process
  | Stop_partition_of_process
  | Restart_partition_of_process of Partition.mode

let rec pp_process_action ppf = function
  | Ignore_error -> Format.pp_print_string ppf "ignore"
  | Log_then (n, a) ->
    Format.fprintf ppf "log×%d-then-%a" n pp_process_action a
  | Restart_process -> Format.pp_print_string ppf "restart-process"
  | Stop_process -> Format.pp_print_string ppf "stop-process"
  | Stop_partition_of_process -> Format.pp_print_string ppf "stop-partition"
  | Restart_partition_of_process m ->
    Format.fprintf ppf "restart-partition(%a)" Partition.pp_mode m

type partition_action =
  | Partition_ignore
  | Partition_idle
  | Partition_warm_restart
  | Partition_cold_restart

let pp_partition_action ppf a =
  Format.pp_print_string ppf
    (match a with
    | Partition_ignore -> "ignore"
    | Partition_idle -> "idle"
    | Partition_warm_restart -> "warm-restart"
    | Partition_cold_restart -> "cold-restart")

type module_action = Module_ignore | Module_shutdown | Module_reset

let pp_module_action ppf a =
  Format.pp_print_string ppf
    (match a with
    | Module_ignore -> "ignore"
    | Module_shutdown -> "shutdown"
    | Module_reset -> "reset")
