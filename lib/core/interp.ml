(* Script interpretation — one tick of the heir process' behaviour script.
   Sits between [Runtime] (state + lifecycle) and [System] (the clock-tick
   executive): the executive picks the heir through the POS and hands it
   here for one tick of CPU. *)

open Air_sim
open Air_model
open Air_pos
open Air_spatial
open Ident
open Runtime

(* Zero-duration actions executed within a single tick are capped; a script
   made only of such actions still consumes CPU time. *)
let max_actions_per_tick = 32

let exec_action t prt q (action : Script.action) : Apex.outcome =
  let env = prt.env in
  let b = Bytes.of_string in
  match action with
  | Script.Compute _ -> Apex.Done Apex.No_error (* handled by the caller *)
  | Script.Periodic_wait -> Apex.periodic_wait env ~process:q
  | Script.Timed_wait d -> Apex.timed_wait env ~process:q d
  | Script.Replenish budget -> Apex.replenish env ~process:q budget
  | Script.Write_sampling (port, payload) ->
    Apex.write_sampling_message env ~process:q ~port (b payload)
  | Script.Read_sampling port ->
    Apex.read_sampling_message env ~process:q ~port
  | Script.Send_queuing (port, payload) ->
    Apex.send_queuing_message env ~process:q ~port (b payload)
  | Script.Receive_queuing (port, timeout) ->
    Apex.receive_queuing_message env ~process:q ~port ~timeout
  | Script.Wait_semaphore (name, timeout) ->
    Apex.wait_semaphore env ~process:q ~name ~timeout
  | Script.Signal_semaphore name -> Apex.signal_semaphore env ~process:q ~name
  | Script.Wait_event (name, timeout) ->
    Apex.wait_event env ~process:q ~name ~timeout
  | Script.Set_event name -> Apex.set_event env ~process:q ~name
  | Script.Reset_event name -> Apex.reset_event env ~process:q ~name
  | Script.Display_blackboard (name, payload) ->
    Apex.display_blackboard env ~process:q ~name (b payload)
  | Script.Clear_blackboard name -> Apex.clear_blackboard env ~process:q ~name
  | Script.Read_blackboard (name, timeout) ->
    Apex.read_blackboard env ~process:q ~name ~timeout
  | Script.Send_buffer (name, payload, timeout) ->
    Apex.send_buffer env ~process:q ~name (b payload) ~timeout
  | Script.Receive_buffer (name, timeout) ->
    Apex.receive_buffer env ~process:q ~name ~timeout
  | Script.Read_memory addr | Script.Write_memory addr ->
    let access =
      match action with
      | Script.Write_memory _ -> Mmu.Write
      | _ -> Mmu.Read
    in
    let pid = prt.setup.partition.Partition.id in
    (* The costed access reports the bandwidth units this touch consumed
       (TLB hit = 1, miss = 1 + walk depth); the charge is a no-op when
       no contention model is configured, and [fst access_costed] is
       exactly the historical [Protection.access] — metrics, TLB fills
       and outcomes are bit-identical either way. *)
    let result, cost =
      Protection.access_costed t.protection ~partition:pid
        ~level:Memory.Application ~access addr
    in
    charge_shared_access t prt ~cost;
    let granted = match result with Ok () -> true | Error _ -> false in
    emit t (Event.Memory_access { partition = pid; address = addr; granted });
    if granted then Apex.Done Apex.No_error
    else begin
      report_partition_error t prt Error.Memory_violation
        ~detail:(Printf.sprintf "address 0x%x" addr);
      Apex.Done Apex.Invalid_config
    end
  | Script.Log line -> Apex.report_application_message env ~process:q line
  | Script.Raise_application_error detail ->
    Apex.raise_application_error env ~process:q detail
  | Script.Request_schedule i ->
    Apex.set_module_schedule env ~process:q (Schedule_id.make i)
  | Script.Log_schedule_status ->
    let status = Apex.get_module_schedule_status env in
    Apex.report_application_message env ~process:q
      (Format.asprintf "schedule status: %a" Apex.pp_schedule_status status)
  | Script.Suspend_self timeout -> Apex.suspend_self env ~process:q ~timeout
  | Script.Resume_process name -> (
    match Kernel.find_by_name prt.kernel name with
    | Some target -> Apex.resume env ~process:target
    | None -> Apex.Done Apex.Invalid_param)
  | Script.Start_other name -> (
    match Kernel.find_by_name prt.kernel name with
    | Some target -> (
      match start_process_internal t prt target ~delay:Time.zero with
      | Ok () -> Apex.Done Apex.No_error
      | Error _ -> Apex.Done Apex.No_action)
    | None -> Apex.Done Apex.Invalid_param)
  | Script.Stop_other name -> (
    match Kernel.find_by_name prt.kernel name with
    | Some target -> Apex.stop prt.env ~process:target
    | None -> Apex.Done Apex.Invalid_param)
  | Script.Stop_self -> Apex.stop_self env ~process:q
  | Script.Lock_preemption -> (
    match Kernel.lock_preemption prt.kernel ~process:q with
    | Ok _ -> Apex.Done Apex.No_error
    | Error _ -> Apex.Done Apex.Invalid_mode)
  | Script.Unlock_preemption -> (
    match Kernel.unlock_preemption prt.kernel ~process:q with
    | Ok _ -> Apex.Done Apex.No_error
    | Error _ -> Apex.Done Apex.No_action)
  | Script.Disable_interrupts ->
    (* Paravirtualization (paper Sect. 2.5): the PMK traps attempts to
       disable or divert system clock interrupts; the guest continues. *)
    emit t
      (Event.Hm_error
         { level = Error.Process_level;
           code = Error.Illegal_request;
           partition = Some prt.setup.partition.Partition.id;
           process = Some (Partition.process_id prt.setup.partition q);
           detail = "clock interrupt disable attempt trapped (paravirtualized)" });
    Apex.Done Apex.Invalid_mode

(* One call of [run_task_tick] = one tick of CPU. A Compute action consumes
   the tick; zero-duration actions (service calls, logs) execute for free,
   before or after the computation — so a body like
   [Compute 60; Log; Periodic_wait] costs exactly 60 ticks per activation,
   with the APEX calls happening within the final tick.

   The interpreter loop is a top-level tail-recursive function with its
   state ([consumed], [actions]) passed as arguments instead of local
   references, so a steady-state Compute tick — the common case — performs
   no allocation. Returning stops the tick. *)
let rec exec_loop t prt q task body on_end consumed actions =
  if actions < max_actions_per_tick then begin
    let actions = actions + 1 in
    if task.pc >= Array.length body then begin
      match on_end with
      | Script.Repeat ->
        task.pc <- 0;
        if Array.length body = 0 then ignore (Kernel.stop prt.kernel q)
        else exec_loop t prt q task body on_end consumed actions
      | Script.Stop -> ignore (Apex.stop_self prt.env ~process:q)
    end
    else begin
      match body.(task.pc) with
      | Script.Compute n ->
        if n <= 0 then begin
          task.pc <- task.pc + 1;
          exec_loop t prt q task body on_end consumed actions
        end
        else if consumed then
          (* A second computation cannot start within the same tick. *)
          ()
        else begin
          if task.compute_left = 0 then task.compute_left <- n;
          task.compute_left <- task.compute_left - 1;
          (* Cache pressure of a busy core: charged per consumed compute
             tick when the contention model prices computation. *)
          charge_compute t prt ~ticks:1;
          if task.compute_left = 0 then begin
            task.pc <- task.pc + 1;
            exec_loop t prt q task body on_end true actions
          end
        end
      | action ->
        let outcome = exec_action t prt q action in
        task.pc <- task.pc + 1;
        (match outcome with
        | Apex.Blocked -> ()
        | Apex.Done _ | Apex.Msg _ ->
          (* The process may have stopped itself, been restarted by a
             recovery action, or shut its partition down. *)
          let stopped =
            (match Kernel.state prt.kernel q with
            | Process.Running -> false
            | Process.Dormant | Process.Ready | Process.Waiting -> true)
            || not (Partition.mode_equal prt.mode Partition.Normal)
          in
          if not stopped then
            exec_loop t prt q task body on_end consumed actions)
    end
  end

(* A tick of [q] first consumes its wakeup flags: a message delivered
   while the process was blocked, and the timed-out flag. *)
let consume_wakeup prt q =
  ignore (Intra.take_delivery prt.intra ~process:q);
  ignore (Kernel.take_timed_out prt.kernel q)

let run_task_tick t prt q =
  consume_wakeup prt q;
  let task = prt.tasks.(q) in
  let script = prt.setup.scripts.(q) in
  exec_loop t prt q task script.Script.body script.Script.on_end false 0

(* --- Compute spans (the executive's skip-ahead) -------------------------- *)

(* Ticks left in the [Compute] action [q]'s script sits on, counting the
   tick that ends it; 0 when the next tick would not start by computing. *)
let compute_remaining prt q =
  let task = prt.tasks.(q) in
  let body = prt.setup.scripts.(q).Script.body in
  if task.pc >= Array.length body then 0
  else
    match body.(task.pc) with
    | Script.Compute n when n > 0 ->
      if task.compute_left = 0 then n else task.compute_left
    | _ -> 0

(* Ticks [q] would spend purely computing before the tick that ends its
   [Compute] action. That last tick runs the actions after it, so it is
   never part of a span. *)
let compute_run prt q = Stdlib.max 0 (compute_remaining prt q - 1)

(* [ticks] <= [compute_run] ticks of [run_task_tick] in one update: the
   first tick's wakeup consumption, the compute progress and one charge
   for all the ticks. *)
let skip_compute t prt q ~ticks =
  consume_wakeup prt q;
  prt.tasks.(q).compute_left <- compute_remaining prt q - ticks;
  charge_compute t prt ~ticks
