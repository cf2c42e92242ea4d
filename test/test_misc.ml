(* Cross-cutting tests: pretty-printer coverage, HM table details,
   sporadic processes, bounded traces, and run_mtfs semantics. *)

open Air_sim
open Air_model
open Air_pos
open Air
open Ident

let check = Alcotest.check
let pid = Partition_id.make
let sid = Schedule_id.make

(* --- Printers: every constructor renders to non-empty text --------------- *)

let non_empty name render = check Alcotest.bool name true (String.length render > 0)

let render pp v = Format.asprintf "%a" pp v

let event_printers () =
  let process = Process_id.make (pid 0) 1 in
  let events =
    [ Event.Context_switch { from = None; to_ = Some (pid 0) };
      Event.Schedule_switch_request { by = Some (pid 1); target = sid 0 };
      Event.Schedule_switch { from = sid 0; to_ = sid 1 };
      Event.Change_action
        { partition = pid 0; action = Schedule.Warm_restart_partition };
      Event.Partition_mode_change { partition = pid 0; mode = Partition.Idle };
      Event.Process_state_change { process; state = Process.Waiting };
      Event.Process_dispatched { process };
      Event.Deadline_registered { process; deadline = 10 };
      Event.Deadline_unregistered { process };
      Event.Deadline_violation { process; deadline = 10 };
      Event.Hm_error
        { level = Error.Module_level; code = Error.Power_failure;
          partition = None; process = None; detail = "brownout" };
      Event.Hm_process_action { process; action = Error.Stop_process };
      Event.Hm_partition_action
        { partition = pid 0; action = Error.Partition_cold_restart };
      Event.Hm_module_action { action = Error.Module_reset };
      Event.Port_send { port = "P"; bytes = 3 };
      Event.Port_receive { port = "P"; bytes = 3 };
      Event.Port_overflow { port = "P" };
      Event.Memory_access { partition = pid 0; address = 0x42; granted = false };
      Event.Application_output { partition = pid 0; line = "hi" };
      Event.Module_halt { reason = "test" } ]
  in
  List.iter (fun ev -> non_empty "event" (render Event.pp ev)) events

let error_printers () =
  List.iter
    (fun code -> non_empty "code" (render Error.pp_code code))
    Error.all_codes;
  non_empty "nested process action"
    (render Error.pp_process_action
       (Error.Log_then (3, Error.Restart_partition_of_process Partition.Warm_start)));
  non_empty "partition action"
    (render Error.pp_partition_action Error.Partition_idle);
  non_empty "module action" (render Error.pp_module_action Error.Module_shutdown)

let script_printers () =
  let actions =
    [ Script.Compute 5; Script.Periodic_wait; Script.Timed_wait 3;
      Script.Replenish 9; Script.Write_sampling ("p", "m");
      Script.Read_sampling "p"; Script.Send_queuing ("p", "m");
      Script.Receive_queuing ("p", Time.infinity);
      Script.Wait_semaphore ("s", 0); Script.Signal_semaphore "s";
      Script.Wait_event ("e", 1); Script.Set_event "e"; Script.Reset_event "e";
      Script.Display_blackboard ("b", "m"); Script.Clear_blackboard "b";
      Script.Read_blackboard ("b", 1); Script.Send_buffer ("b", "m", 1);
      Script.Receive_buffer ("b", 1); Script.Read_memory 0x10;
      Script.Write_memory 0x10; Script.Log "x";
      Script.Raise_application_error "x"; Script.Request_schedule 1;
      Script.Log_schedule_status; Script.Suspend_self 5;
      Script.Resume_process "p"; Script.Start_other "p"; Script.Stop_other "p";
      Script.Stop_self; Script.Disable_interrupts ]
  in
  List.iter (fun a -> non_empty "action" (render Script.pp_action a)) actions;
  non_empty "script" (render Script.pp (Script.make actions))

let kernel_and_misc_printers () =
  let k =
    Kernel.create ~partition:(pid 0) ~policy:Kernel.Priority_preemptive
      ~hooks:Kernel.null_hooks
      [| Process.spec "a" |]
  in
  ignore (Kernel.start k ~now:0 0);
  non_empty "kernel" (render Kernel.pp k);
  non_empty "policy quantum"
    (render Kernel.pp_policy (Kernel.Round_robin { quantum = 4 }));
  non_empty "wait reason" (render Kernel.pp_wait_reason (Kernel.On_semaphore "s"));
  non_empty "op error" (render Kernel.pp_op_error Kernel.Not_periodic);
  non_empty "intra outcome" (render Air_pos.Intra.pp_outcome `Unavailable);
  non_empty "discipline" (render Air_pos.Intra.pp_discipline Air_pos.Intra.Priority);
  non_empty "schedule" (render Schedule.pp Air_workload.Satellite.schedule_1);
  non_empty "multicore diag"
    (render Multicore.pp_diagnostic
       (Multicore.Mtf_not_multiple_of_lcm { mtf = 7; lcm = 3 }));
  non_empty "router error"
    (render Air_ipc.Router.pp_error (Air_ipc.Router.Unknown_port "x"));
  non_empty "mmu fault"
    (render Air_spatial.Mmu.pp_fault
       { Air_spatial.Mmu.context = 1; address = 2;
         access = Air_spatial.Mmu.Write;
         level = Air_spatial.Memory.Pos;
         reason = Air_spatial.Mmu.Privilege });
  non_empty "apex outcome"
    (render Apex.pp_outcome (Apex.Msg (Bytes.of_string "x", Apex.No_error)));
  non_empty "synthesis failure"
    (render Air_analysis.Synthesis.pp_failure
       (Air_analysis.Synthesis.Overcommitted { utilization = 1.2 }));
  non_empty "rta verdict"
    (render Air_analysis.Rta.pp_verdict
       { Air_analysis.Rta.process = 0; response_time = None; deadline = 5;
         schedulable = false })

(* --- HM details ------------------------------------------------------------ *)

let hm_counting () =
  let hm = Hm.create () in
  ignore (Hm.resolve_process_error hm ~partition:(pid 0) ~process:0 ~code:Error.Deadline_missed);
  ignore (Hm.resolve_process_error hm ~partition:(pid 0) ~process:1 ~code:Error.Deadline_missed);
  ignore (Hm.resolve_partition_error hm ~partition:(pid 1) ~code:Error.Memory_violation);
  ignore (Hm.resolve_module_error hm ~code:Error.Power_failure);
  check Alcotest.int "total" 4 (Hm.error_count hm);
  check Alcotest.int "per code" 2 (Hm.code_count hm Error.Deadline_missed);
  check Alcotest.int "any partition" 1
    (Hm.code_count hm Error.Memory_violation);
  check Alcotest.int "process level" 2
    (Hm.level_count hm Error.Process_level);
  check Alcotest.int "partition level" 1
    (Hm.level_count hm Error.Partition_level);
  check Alcotest.int "module level" 1 (Hm.level_count hm Error.Module_level);
  check Alcotest.int "no escalation under the default tables" 0
    (Hm.actions_taken hm)

let hm_strict_tables () =
  let hm = Hm.create ~tables:Hm.strict_tables () in
  check Alcotest.bool "deadline → stop" true
    (Hm.resolve_process_error hm ~partition:(pid 2) ~process:0
       ~code:Error.Deadline_missed
     = Error.Stop_process);
  check Alcotest.bool "memory → warm restart" true
    (Hm.resolve_partition_error hm ~partition:(pid 2)
       ~code:Error.Memory_violation
     = Error.Partition_warm_restart);
  check Alcotest.bool "hardware → reset" true
    (Hm.resolve_module_error hm ~code:Error.Hardware_fault = Error.Module_reset);
  check Alcotest.bool "power → shutdown" true
    (Hm.resolve_module_error hm ~code:Error.Power_failure
     = Error.Module_shutdown)

(* Regression: [strict_tables] used to enumerate actions for the first 16
   partitions only, so a module with more partitions silently lost strict
   coverage from partition 16 onwards. The wildcard representation must
   cover any partition index. *)
let hm_strict_tables_beyond_16_partitions () =
  let hm = Hm.create ~tables:Hm.strict_tables () in
  List.iter
    (fun i ->
      check Alcotest.bool
        (Printf.sprintf "deadline → stop for partition %d" i)
        true
        (Hm.resolve_process_error hm ~partition:(pid i) ~process:0
           ~code:Error.Deadline_missed
        = Error.Stop_process);
      check Alcotest.bool
        (Printf.sprintf "memory → warm restart for partition %d" i)
        true
        (Hm.resolve_partition_error hm ~partition:(pid i)
           ~code:Error.Memory_violation
        = Error.Partition_warm_restart))
    [ 0; 15; 16; 19 ]

(* Specific entries take precedence over wildcard defaults. *)
let hm_specific_overrides_wildcard () =
  let tables =
    { Hm.strict_tables with
      Hm.process_actions =
        [ (pid 3, Error.Deadline_missed, Error.Restart_process) ];
      Hm.partition_actions =
        [ (pid 3, Error.Memory_violation, Error.Partition_cold_restart) ] }
  in
  let hm = Hm.create ~tables () in
  check Alcotest.bool "specific process action wins" true
    (Hm.resolve_process_error hm ~partition:(pid 3) ~process:0
       ~code:Error.Deadline_missed
    = Error.Restart_process);
  check Alcotest.bool "wildcard still covers the rest" true
    (Hm.resolve_process_error hm ~partition:(pid 4) ~process:0
       ~code:Error.Deadline_missed
    = Error.Stop_process);
  check Alcotest.bool "specific partition action wins" true
    (Hm.resolve_partition_error hm ~partition:(pid 3)
       ~code:Error.Memory_violation
    = Error.Partition_cold_restart)

let hm_log_then_threshold_boundaries () =
  let tables =
    { Hm.default_tables with
      Hm.process_actions =
        [ (pid 0, Error.Application_error, Error.Log_then (1, Error.Stop_process)) ] }
  in
  let hm = Hm.create ~tables () in
  let resolve () =
    Hm.resolve_process_error hm ~partition:(pid 0) ~process:0
      ~code:Error.Application_error
  in
  check Alcotest.bool "first: ignored" true (resolve () = Error.Ignore_error);
  check Alcotest.bool "second: acts" true (resolve () = Error.Stop_process);
  (* Counters are per (partition, process, code): another process starts
     fresh. *)
  check Alcotest.bool "other process ignored" true
    (Hm.resolve_process_error hm ~partition:(pid 0) ~process:1
       ~code:Error.Application_error
    = Error.Ignore_error)

(* --- Sporadic processes ----------------------------------------------------- *)

let sporadic_release_cadence () =
  let k =
    Kernel.create ~partition:(pid 0) ~policy:Kernel.Priority_preemptive
      ~hooks:Kernel.null_hooks
      [| Process.spec ~periodicity:(Process.Sporadic 50) ~time_capacity:40
           ~base_priority:5 "burst" |]
  in
  ignore (Kernel.start k ~now:0 0);
  check Alcotest.int "deadline armed" 40
    (Kernel.status k 0).Process.deadline_time;
  (* A sporadic process uses PERIODIC_WAIT with its minimum inter-arrival
     bound as the release separation. *)
  (match Kernel.periodic_wait k ~now:10 0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "sporadic periodic_wait");
  Kernel.announce_ticks k ~now:49;
  check Alcotest.bool "not before the bound" true
    (Process.state_equal (Kernel.state k 0) Process.Waiting);
  Kernel.announce_ticks k ~now:50;
  check Alcotest.bool "released at the bound" true
    (Process.state_equal (Kernel.state k 0) Process.Ready)

(* --- System odds and ends ---------------------------------------------------- *)

let bounded_trace () =
  let p =
    Partition.make ~id:(pid 0) ~name:"CHATTY"
      [ Process.spec ~periodicity:(Process.Periodic 10) ~time_capacity:10
          ~wcet:2 ~base_priority:5 "talk" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"all" ~mtf:10
      ~requirements:[ { Schedule.partition = pid 0; cycle = 10; duration = 10 } ]
      [ { Schedule.partition = pid 0; offset = 0; duration = 10 } ]
  in
  let s =
    System.create
      (System.config ~trace_capacity:50
         ~partitions:
           [ System.partition_setup p
               [ Script.periodic_body [ Script.Compute 2; Script.Log "x" ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:2000;
  check Alcotest.bool "bounded" true (Trace.length (System.trace s) <= 50);
  check Alcotest.bool "counted everything" true
    (Trace.total (System.trace s) > 400)

let run_mtfs_lands_on_boundaries () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 1;
  check Alcotest.int "one MTF" 1299 (System.now s);
  System.run_mtfs s 2;
  check Alcotest.int "three MTFs" 3899 (System.now s);
  (* Mid-frame resumption completes the current MTF. *)
  System.run s ~ticks:100;
  System.run_mtfs s 1;
  check Alcotest.int "completed the frame" 5199 (System.now s)

let suite =
  [ Alcotest.test_case "printers: events" `Quick event_printers;
    Alcotest.test_case "printers: errors" `Quick error_printers;
    Alcotest.test_case "printers: scripts" `Quick script_printers;
    Alcotest.test_case "printers: kernel and misc" `Quick
      kernel_and_misc_printers;
    Alcotest.test_case "hm: occurrence counting" `Quick hm_counting;
    Alcotest.test_case "hm: strict tables" `Quick hm_strict_tables;
    Alcotest.test_case "hm: strict tables beyond 16 partitions" `Quick
      hm_strict_tables_beyond_16_partitions;
    Alcotest.test_case "hm: specific overrides wildcard" `Quick
      hm_specific_overrides_wildcard;
    Alcotest.test_case "hm: log-then thresholds" `Quick
      hm_log_then_threshold_boundaries;
    Alcotest.test_case "sporadic release cadence" `Quick
      sporadic_release_cadence;
    Alcotest.test_case "system: bounded trace" `Quick bounded_trace;
    Alcotest.test_case "system: run_mtfs boundaries" `Quick
      run_mtfs_lands_on_boundaries ]
