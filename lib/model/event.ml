open Air_sim
open Ident

type t =
  | Context_switch of {
      from : Partition_id.t option;
      to_ : Partition_id.t option;
    }
  | Schedule_switch_request of {
      by : Partition_id.t option;
      target : Schedule_id.t;
    }
  | Schedule_switch of { from : Schedule_id.t; to_ : Schedule_id.t }
  | Change_action of {
      partition : Partition_id.t;
      action : Schedule.change_action;
    }
  | Partition_mode_change of {
      partition : Partition_id.t;
      mode : Partition.mode;
    }
  | Process_state_change of { process : Process_id.t; state : Process.state }
  | Process_dispatched of { process : Process_id.t }
  | Deadline_registered of { process : Process_id.t; deadline : Time.t }
  | Deadline_unregistered of { process : Process_id.t }
  | Deadline_violation of { process : Process_id.t; deadline : Time.t }
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
  | Memory_access of {
      partition : Partition_id.t;
      address : int;
      granted : bool;
    }
  | Application_output of { partition : Partition_id.t; line : string }
  | Module_halt of { reason : string }
  | Fault_injected of { label : string }

let kind = function
  | Context_switch _ -> 0
  | Schedule_switch_request _ -> 1
  | Schedule_switch _ -> 2
  | Change_action _ -> 3
  | Partition_mode_change _ -> 4
  | Process_state_change _ -> 5
  | Process_dispatched _ -> 6
  | Deadline_registered _ -> 7
  | Deadline_unregistered _ -> 8
  | Deadline_violation _ -> 9
  | Hm_error _ -> 10
  | Hm_process_action _ -> 11
  | Hm_partition_action _ -> 12
  | Hm_module_action _ -> 13
  | Port_send _ -> 14
  | Port_receive _ -> 15
  | Port_overflow _ -> 16
  | Memory_access _ -> 17
  | Application_output _ -> 18
  | Module_halt _ -> 19
  | Fault_injected _ -> 20

let labels =
  [| "context-switch"; "schedule-switch-request"; "schedule-switch";
     "change-action"; "partition-mode-change"; "process-state-change";
     "process-dispatched"; "deadline-registered"; "deadline-unregistered";
     "deadline-violation"; "hm-error"; "hm-process-action";
     "hm-partition-action"; "hm-module-action"; "port-send";
     "port-receive"; "port-overflow"; "memory-access"; "application-output";
     "module-halt"; "fault-injected" |]

let label ev = labels.(kind ev)

let pp_opt pp ppf = function
  | None -> Format.pp_print_string ppf "idle"
  | Some x -> pp ppf x

let pp ppf = function
  | Context_switch { from; to_ } ->
    Format.fprintf ppf "context-switch %a → %a"
      (pp_opt Partition_id.pp) from (pp_opt Partition_id.pp) to_
  | Schedule_switch_request { by; target } ->
    Format.fprintf ppf "schedule-switch-request by %a target %a"
      (pp_opt Partition_id.pp) by Schedule_id.pp target
  | Schedule_switch { from; to_ } ->
    Format.fprintf ppf "schedule-switch %a → %a" Schedule_id.pp from
      Schedule_id.pp to_
  | Change_action { partition; action } ->
    Format.fprintf ppf "change-action %a: %a" Partition_id.pp partition
      Schedule.pp_change_action action
  | Partition_mode_change { partition; mode } ->
    Format.fprintf ppf "mode %a := %a" Partition_id.pp partition
      Partition.pp_mode mode
  | Process_state_change { process; state } ->
    Format.fprintf ppf "process %a → %a" Process_id.pp process
      Process.pp_state state
  | Process_dispatched { process } ->
    Format.fprintf ppf "dispatched %a" Process_id.pp process
  | Deadline_registered { process; deadline } ->
    Format.fprintf ppf "deadline-registered %a at %a" Process_id.pp process
      Time.pp deadline
  | Deadline_unregistered { process } ->
    Format.fprintf ppf "deadline-unregistered %a" Process_id.pp process
  | Deadline_violation { process; deadline } ->
    Format.fprintf ppf "DEADLINE VIOLATION %a (deadline %a)" Process_id.pp
      process Time.pp deadline
  | Hm_error { level; code; partition; process; detail } ->
    Format.fprintf ppf "HM %a-level %a%a%a%s" Error.pp_level level
      Error.pp_code code
      (fun ppf -> function
        | None -> ()
        | Some p -> Format.fprintf ppf " partition %a" Partition_id.pp p)
      partition
      (fun ppf -> function
        | None -> ()
        | Some p -> Format.fprintf ppf " process %a" Process_id.pp p)
      process
      (if String.equal detail "" then "" else ": " ^ detail)
  | Hm_process_action { process; action } ->
    Format.fprintf ppf "HM action on %a: %a" Process_id.pp process
      Error.pp_process_action action
  | Hm_partition_action { partition; action } ->
    Format.fprintf ppf "HM action on %a: %a" Partition_id.pp partition
      Error.pp_partition_action action
  | Hm_module_action { action } ->
    Format.fprintf ppf "HM module action: %a" Error.pp_module_action action
  | Port_send { port; bytes } ->
    Format.fprintf ppf "port-send %s (%d bytes)" port bytes
  | Port_receive { port; bytes } ->
    Format.fprintf ppf "port-receive %s (%d bytes)" port bytes
  | Port_overflow { port } -> Format.fprintf ppf "port-overflow %s" port
  | Memory_access { partition; address; granted } ->
    Format.fprintf ppf "memory-access %a 0x%x %s" Partition_id.pp partition
      address
      (if granted then "granted" else "DENIED")
  | Application_output { partition; line } ->
    Format.fprintf ppf "out %a: %s" Partition_id.pp partition line
  | Module_halt { reason } -> Format.fprintf ppf "MODULE HALT: %s" reason
  | Fault_injected { label } -> Format.fprintf ppf "FAULT INJECTED: %s" label

(* --- Packed trace entries ------------------------------------------------

   Header, low bits first: the trace's two flags, the 5-bit [kind], then up
   to three fields [a] (16 bits), [b] (16 bits) and [c] (a small tag). An
   optional partition is [0] for [None], [index + 1] otherwise. An index
   that does not fit its field, and the rare HM, halt and fault events,
   are stored boxed. *)

let field_bits = 16
let field_mask = (1 lsl field_bits) - 1

let small kind a b c =
  if (a lor b) lsr field_bits = 0 then
    (kind lsl 2) lor (a lsl 7) lor (b lsl (7 + field_bits))
    lor (c lsl (7 + (2 * field_bits)))
  else Trace.boxed

let opt = function None -> 0 | Some p -> Partition_id.index p + 1

let unopt i = if i = 0 then None else Some (Partition_id.make (i - 1))

let process kind p c =
  let partition = Partition_id.index (Process_id.partition p) in
  small kind partition (Process_id.index p) c

let process_of a b = Process_id.make (Partition_id.make a) b

(* Tag tables, indexed as the [*_tag] functions number them. *)
let change_actions =
  Schedule.[| No_action; Warm_restart_partition; Cold_restart_partition |]

let modes = Partition.[| Normal; Idle; Cold_start; Warm_start |]
let states = Process.[| Dormant; Ready; Running; Waiting |]

let change_tag : Schedule.change_action -> int = function
  | No_action -> 0
  | Warm_restart_partition -> 1
  | Cold_restart_partition -> 2

let mode_tag : Partition.mode -> int = function
  | Normal -> 0
  | Idle -> 1
  | Cold_start -> 2
  | Warm_start -> 3

let state_tag : Process.state -> int = function
  | Dormant -> 0
  | Ready -> 1
  | Running -> 2
  | Waiting -> 3

let header = function
  | Context_switch { from; to_ } -> small 0 (opt from) (opt to_) 0
  | Schedule_switch_request { by; target } ->
    small 1 (opt by) (Schedule_id.index target) 0
  | Schedule_switch { from; to_ } ->
    small 2 (Schedule_id.index from) (Schedule_id.index to_) 0
  | Change_action { partition; action } ->
    small 3 (Partition_id.index partition) (change_tag action) 0
  | Partition_mode_change { partition; mode } ->
    small 4 (Partition_id.index partition) (mode_tag mode) 0
  | Process_state_change { process = p; state } ->
    process 5 p (state_tag state)
  | Process_dispatched { process = p } -> process 6 p 0
  | Deadline_registered { process = p; _ } -> process 7 p 0
  | Deadline_unregistered { process = p } -> process 8 p 0
  | Deadline_violation { process = p; _ } -> process 9 p 0
  | Port_send _ -> (14 lsl 2) lor Trace.text
  | Port_receive _ -> (15 lsl 2) lor Trace.text
  | Port_overflow _ -> (16 lsl 2) lor Trace.text
  | Memory_access { partition; granted; _ } ->
    small 17 (Partition_id.index partition) (Bool.to_int granted) 0
  | Application_output { partition; _ } ->
    small 18 (Partition_id.index partition) 0 0 lor Trace.text
  | Hm_error _ | Hm_process_action _ | Hm_partition_action _
  | Hm_module_action _ | Module_halt _ | Fault_injected _ ->
    Trace.boxed

let wide = function
  | Deadline_registered { deadline; _ } | Deadline_violation { deadline; _ } ->
    deadline
  | Port_send { bytes; _ } | Port_receive { bytes; _ } -> bytes
  | Memory_access { address; _ } -> address
  | _ -> 0

let text = function
  | Port_send { port; _ } | Port_receive { port; _ } | Port_overflow { port }
    ->
    port
  | Application_output { line; _ } -> line
  | _ -> ""

let decode h wide text =
  let a = (h lsr 7) land field_mask
  and b = (h lsr (7 + field_bits)) land field_mask
  and c = h lsr (7 + (2 * field_bits)) in
  match (h lsr 2) land 31 with
  | 0 -> Context_switch { from = unopt a; to_ = unopt b }
  | 1 -> Schedule_switch_request { by = unopt a; target = Schedule_id.make b }
  | 2 -> Schedule_switch { from = Schedule_id.make a; to_ = Schedule_id.make b }
  | 3 ->
    Change_action
      { partition = Partition_id.make a; action = change_actions.(b) }
  | 4 ->
    Partition_mode_change { partition = Partition_id.make a; mode = modes.(b) }
  | 5 -> Process_state_change { process = process_of a b; state = states.(c) }
  | 6 -> Process_dispatched { process = process_of a b }
  | 7 -> Deadline_registered { process = process_of a b; deadline = wide }
  | 8 -> Deadline_unregistered { process = process_of a b }
  | 9 -> Deadline_violation { process = process_of a b; deadline = wide }
  | 14 -> Port_send { port = text; bytes = wide }
  | 15 -> Port_receive { port = text; bytes = wide }
  | 16 -> Port_overflow { port = text }
  | 17 ->
    Memory_access
      { partition = Partition_id.make a; address = wide; granted = b = 1 }
  | 18 -> Application_output { partition = Partition_id.make a; line = text }
  | k -> invalid_arg (Printf.sprintf "Event.decode: kind %d is kept boxed" k)

let codec =
  { Trace.header; wide; text; decode; blank = Module_halt { reason = "" } }

let is_deadline_violation = function
  | Deadline_violation _ -> true
  | _ -> false

let is_context_switch = function Context_switch _ -> true | _ -> false
let is_schedule_switch = function Schedule_switch _ -> true | _ -> false
let is_hm_error = function Hm_error _ -> true | _ -> false

let violation_of = function
  | Deadline_violation { process; deadline } -> Some (process, deadline)
  | _ -> None
