open Air_model

type comm_fault =
  | Msg_loss
  | Msg_duplicate
  | Msg_corrupt of { byte : int }
  | Msg_delay of { ticks : int }
  | Msg_reorder

type t =
  | Runaway_start of { partition : int; process : string }
  | Process_stop of { partition : int; process : string }
  | Partition_restart of { partition : int; mode : Partition.mode }
  | Schedule_request of { schedule : int }
  | Clock_jitter of { partition : int; ticks : int }
  | Wild_access of {
      partition : int;
      section : Air_spatial.Memory.section;
      offset : int;
      write : bool;
    }
  | Bit_flip of {
      partition : int;
      section : Air_spatial.Memory.section;
      bit : int;
      write : bool;
    }
  | Bandwidth_hog of { partition : int; permille : int }
  | Port_fault of { port : string; fault : comm_fault }
  | Link_fault of { fault : comm_fault }
  | Module_error of { code : Error.code }

type scope =
  | Scope_partition of int
  | Scope_port of string
  | Scope_module
  | Scope_benign

let scope = function
  | Runaway_start { partition; _ }
  | Process_stop { partition; _ }
  | Partition_restart { partition; _ }
  | Clock_jitter { partition; _ }
  | Wild_access { partition; _ }
  | Bit_flip { partition; _ }
  | Bandwidth_hog { partition; _ } ->
    Scope_partition partition
  | Port_fault { port; _ } -> Scope_port port
  | Schedule_request _ -> Scope_benign
  | Link_fault _ | Module_error _ -> Scope_module

let guaranteed_detection = function
  | Wild_access _ ->
    (* Out-of-region by construction: the MMU walk must deny it. *)
    Some Error.Memory_violation
  | Module_error { code } -> Some code
  | Bandwidth_hog _ ->
    (* Applied means the hog's own window demand blew its budget, which
       the executive must escalate as temporal degradation. *)
    Some Error.Temporal_degradation
  | Runaway_start _ | Process_stop _ | Partition_restart _
  | Schedule_request _ | Clock_jitter _ | Bit_flip _ | Port_fault _
  | Link_fault _ ->
    None

let comm_name = function
  | Msg_loss -> "loss"
  | Msg_duplicate -> "duplicate"
  | Msg_corrupt _ -> "corrupt"
  | Msg_delay _ -> "delay"
  | Msg_reorder -> "reorder"

let section_name = function
  | Air_spatial.Memory.Code -> "code"
  | Air_spatial.Memory.Data -> "data"
  | Air_spatial.Memory.Stack -> "stack"
  | Air_spatial.Memory.Io -> "io"

let mode_name = function
  | Partition.Normal -> "normal"
  | Partition.Idle -> "idle"
  | Partition.Cold_start -> "cold"
  | Partition.Warm_start -> "warm"

let label = function
  | Runaway_start { partition; process } ->
    Printf.sprintf "runaway-start p%d %s" partition process
  | Process_stop { partition; process } ->
    Printf.sprintf "process-stop p%d %s" partition process
  | Partition_restart { partition; mode } ->
    Printf.sprintf "partition-restart p%d %s" partition (mode_name mode)
  | Schedule_request { schedule } ->
    Printf.sprintf "schedule-request s%d" schedule
  | Clock_jitter { partition; ticks } ->
    Printf.sprintf "clock-jitter p%d %d" partition ticks
  | Wild_access { partition; section; offset; write } ->
    Printf.sprintf "wild-access p%d %s+%d %s" partition (section_name section)
      offset
      (if write then "write" else "read")
  | Bit_flip { partition; section; bit; write } ->
    Printf.sprintf "bit-flip p%d %s bit%d %s" partition (section_name section)
      bit
      (if write then "write" else "read")
  | Bandwidth_hog { partition; permille } ->
    Printf.sprintf "bandwidth-hog p%d %d" partition permille
  | Port_fault { port; fault } ->
    Printf.sprintf "message-%s %s" (comm_name fault) port
  | Link_fault { fault } -> Printf.sprintf "link-%s" (comm_name fault)
  | Module_error { code } ->
    Format.asprintf "module-error %a" Error.pp_code code

let pp ppf t = Format.pp_print_string ppf (label t)
