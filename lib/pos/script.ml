open Air_sim

type action =
  | Compute of int
  | Periodic_wait
  | Timed_wait of Time.t
  | Replenish of Time.t
  | Write_sampling of string * string
  | Read_sampling of string
  | Send_queuing of string * string
  | Receive_queuing of string * Time.t
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
  | Write_memory of int
  | Log of string
  | Raise_application_error of string
  | Request_schedule of int
  | Log_schedule_status
  | Suspend_self of Time.t
  | Resume_process of string
  | Start_other of string
  | Stop_other of string
  | Stop_self
  | Disable_interrupts
  | Lock_preemption
  | Unlock_preemption

type on_end = Repeat | Stop

type t = { body : action array; on_end : on_end }

let make ?(on_end = Repeat) actions =
  { body = Array.of_list actions; on_end }

let empty = { body = [||]; on_end = Stop }

let periodic_body actions =
  { body = Array.of_list (actions @ [ Periodic_wait ]); on_end = Repeat }

let pp_action ppf = function
  | Compute n -> Format.fprintf ppf "compute %d" n
  | Periodic_wait -> Format.pp_print_string ppf "periodic-wait"
  | Timed_wait d -> Format.fprintf ppf "timed-wait %a" Time.pp d
  | Replenish b -> Format.fprintf ppf "replenish %a" Time.pp b
  | Write_sampling (p, _) -> Format.fprintf ppf "write-sampling %s" p
  | Read_sampling p -> Format.fprintf ppf "read-sampling %s" p
  | Send_queuing (p, _) -> Format.fprintf ppf "send-queuing %s" p
  | Receive_queuing (p, d) ->
    Format.fprintf ppf "receive-queuing %s timeout=%a" p Time.pp d
  | Wait_semaphore (s, d) ->
    Format.fprintf ppf "wait-semaphore %s timeout=%a" s Time.pp d
  | Signal_semaphore s -> Format.fprintf ppf "signal-semaphore %s" s
  | Wait_event (e, d) ->
    Format.fprintf ppf "wait-event %s timeout=%a" e Time.pp d
  | Set_event e -> Format.fprintf ppf "set-event %s" e
  | Reset_event e -> Format.fprintf ppf "reset-event %s" e
  | Display_blackboard (b, _) -> Format.fprintf ppf "display-blackboard %s" b
  | Clear_blackboard b -> Format.fprintf ppf "clear-blackboard %s" b
  | Read_blackboard (b, d) ->
    Format.fprintf ppf "read-blackboard %s timeout=%a" b Time.pp d
  | Send_buffer (b, _, d) ->
    Format.fprintf ppf "send-buffer %s timeout=%a" b Time.pp d
  | Receive_buffer (b, d) ->
    Format.fprintf ppf "receive-buffer %s timeout=%a" b Time.pp d
  | Read_memory a -> Format.fprintf ppf "read-memory 0x%x" a
  | Write_memory a -> Format.fprintf ppf "write-memory 0x%x" a
  | Log s -> Format.fprintf ppf "log %S" s
  | Raise_application_error s -> Format.fprintf ppf "raise-error %S" s
  | Request_schedule i -> Format.fprintf ppf "request-schedule %d" i
  | Log_schedule_status -> Format.pp_print_string ppf "log-schedule-status"
  | Suspend_self d -> Format.fprintf ppf "suspend-self timeout=%a" Time.pp d
  | Resume_process p -> Format.fprintf ppf "resume %s" p
  | Start_other p -> Format.fprintf ppf "start %s" p
  | Stop_other p -> Format.fprintf ppf "stop %s" p
  | Stop_self -> Format.pp_print_string ppf "stop-self"
  | Disable_interrupts -> Format.pp_print_string ppf "disable-interrupts"
  | Lock_preemption -> Format.pp_print_string ppf "lock-preemption"
  | Unlock_preemption -> Format.pp_print_string ppf "unlock-preemption"

let pp ppf t =
  Format.fprintf ppf "@[<v>%a%s@]"
    (Format.pp_print_list pp_action)
    (Array.to_list t.body)
    (match t.on_end with Repeat -> " (repeat)" | Stop -> " (stop)")
