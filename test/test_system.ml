(* Full-system integration tests: the paper's Sect. 6 prototype behaviour,
   health-monitoring recovery actions, interpartition communication through
   APEX, spatial faults, and generic-OS partitions. *)

open Air_sim
open Air_model
open Air_pos
open Air
open Ident

let check = Alcotest.check
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

let count_events p s = Trace.count p (System.trace s)

(* --- The paper's prototype (Sect. 6) ------------------------------------ *)

let prototype_clean_run () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 4;
  check Alcotest.int "no violations without the fault" 0
    (List.length (System.violations s));
  check Alcotest.bool "not halted" true (System.halted s = None);
  (* All four partitions reached normal mode. *)
  List.iter
    (fun p ->
      check Alcotest.bool "normal" true
        (Partition.mode_equal (System.partition_mode s p) Partition.Normal))
    (System.partition_ids s)

let prototype_fault_detected_every_dispatch () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 1;
  Air_workload.Satellite.inject_fault s;
  System.run_mtfs s 4;
  let violations = System.violations s in
  (* Paper: "its deadline violation is detected and reported every time
     (except the first) that P1 is scheduled and dispatched". P1 is
     dispatched at 1300, 2600, 3900, 5200 after injection; detection at
     2600, 3900, 5200. *)
  check Alcotest.(list int) "detection instants" [ 2600; 3900; 5200 ]
    (List.map (fun (t, _, _) -> t) violations);
  List.iter
    (fun (_, process, _) ->
      check Alcotest.bool "all violations on the faulty process" true
        (Partition_id.equal (Process_id.partition process)
           Air_workload.Satellite.p1))
    violations

let prototype_fault_confined_to_p1 () =
  let s = Air_workload.Satellite.make () in
  Air_workload.Satellite.inject_fault s;
  System.run_mtfs s 6;
  (* Temporal containment: the overrunning process may only hurt its own
     partition; every other partition's processes keep their deadlines. *)
  List.iter
    (fun (_, process, _) ->
      check Alcotest.bool "confined" true
        (Partition_id.equal (Process_id.partition process)
           Air_workload.Satellite.p1))
    (System.violations s);
  (* And the healthy P1 process is never the violator either (priority 5
     beats the faulty process's 20). *)
  check Alcotest.int "attitude-control unharmed" 0
    (count_events
       (function
         | Event.Deadline_violation { process; _ } ->
           Process_id.index process = 0
         | _ -> false)
       s)

let prototype_schedule_switch_no_extra_violations () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 1;
  (* Successive requests: the last one before the MTF boundary wins. *)
  Result.get_ok (System.request_schedule s Air_workload.Satellite.chi2);
  System.run_mtfs s 2;
  Result.get_ok (System.request_schedule s Air_workload.Satellite.chi1);
  System.run_mtfs s 2;
  check Alcotest.int "switches honoured" 2
    (count_events Event.is_schedule_switch s);
  check Alcotest.int "no violations from switching" 0
    (List.length (System.violations s))

let prototype_interpartition_traffic_flows () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 3;
  let sent =
    count_events (function Event.Port_send _ -> true | _ -> false) s
  in
  let received =
    count_events (function Event.Port_receive _ -> true | _ -> false) s
  in
  check Alcotest.bool "messages sent" true (sent > 0);
  check Alcotest.bool "messages received" true (received > 0);
  check Alcotest.int "no overflow" 0
    (count_events (function Event.Port_overflow _ -> true | _ -> false) s)

let prototype_activity_matches_pst () =
  let s = Air_workload.Satellite.make () in
  System.run_mtfs s 2;
  let occupancy =
    Air_vitral.Gantt.occupancy
      ~partitions:(System.partition_ids s)
      ~from:0 ~until:1300 (System.activity s)
  in
  let share p =
    match List.assoc_opt (Some p) occupancy with Some n -> n | None -> 0
  in
  check Alcotest.int "P1 share" 200 (share Air_workload.Satellite.p1);
  check Alcotest.int "P2 share" 200 (share Air_workload.Satellite.p2);
  check Alcotest.int "P3 share" 200 (share Air_workload.Satellite.p3);
  check Alcotest.int "P4 share" 700 (share Air_workload.Satellite.p4);
  check Alcotest.int "no idle in chi1" 0
    (match List.assoc_opt None occupancy with Some n -> n | None -> 0)

(* --- Health-monitoring recovery actions --------------------------------- *)

let simple_system ?(hm_tables = Hm.default_tables) ?script ?(capacity = 40)
    () =
  let script =
    Option.value script
      ~default:(Script.periodic_body [ Script.Compute 60 ])
  in
  (* One partition, full MTF; the process needs 60 ticks but its deadline
     is [capacity] — a violation every period when capacity < 60. *)
  let p =
    Partition.make ~id:(pid 0) ~name:"SOLO"
      [ Process.spec ~periodicity:(Process.Periodic 100)
          ~time_capacity:capacity ~wcet:60 ~base_priority:5 "victim" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"all" ~mtf:100
      ~requirements:[ q (pid 0) 100 100 ]
      [ w (pid 0) 0 100 ]
  in
  System.create
    (System.config ~hm_tables
       ~partitions:[ System.partition_setup p [ script ] ]
       ~schedules:[ schedule ] ())

let hm_default_ignores () =
  let s = simple_system () in
  System.run s ~ticks:300;
  check Alcotest.bool "violations logged" true
    (List.length (System.violations s) > 0);
  (* Ignore action: the process keeps running. *)
  check Alcotest.bool "process alive" true
    (match Kernel.state (System.kernel_of s (pid 0)) 0 with
    | Process.Dormant -> false
    | _ -> true)

let hm_stop_process () =
  let tables =
    { Hm.default_tables with
      Hm.process_actions =
        [ (pid 0, Error.Deadline_missed, Error.Stop_process) ] }
  in
  let s = simple_system ~hm_tables:tables () in
  System.run s ~ticks:300;
  check Alcotest.bool "stopped" true
    (Process.state_equal (Kernel.state (System.kernel_of s (pid 0)) 0)
       Process.Dormant);
  check Alcotest.bool "action event emitted" true
    (count_events
       (function
         | Event.Hm_process_action { action = Error.Stop_process; _ } -> true
         | _ -> false)
       s
    > 0)

let hm_restart_process () =
  let tables =
    { Hm.default_tables with
      Hm.process_actions =
        [ (pid 0, Error.Deadline_missed, Error.Restart_process) ] }
  in
  let s = simple_system ~hm_tables:tables () in
  System.run s ~ticks:500;
  (* Restarted from its entry point each time — still alive. *)
  check Alcotest.bool "alive" true
    (not
       (Process.state_equal (Kernel.state (System.kernel_of s (pid 0)) 0)
          Process.Dormant));
  check Alcotest.bool "several restarts" true
    (count_events
       (function
         | Event.Hm_process_action { action = Error.Restart_process; _ } ->
           true
         | _ -> false)
       s
    >= 2)

let hm_log_threshold () =
  let tables =
    { Hm.default_tables with
      Hm.process_actions =
        [ (pid 0, Error.Deadline_missed,
           Error.Log_then (2, Error.Stop_process)) ] }
  in
  let s = simple_system ~hm_tables:tables () in
  System.run s ~ticks:600;
  (* First two violations only logged; the third stops the process. *)
  let stops =
    count_events
      (function
        | Event.Hm_process_action { action = Error.Stop_process; _ } -> true
        | _ -> false)
      s
  in
  check Alcotest.int "one stop" 1 stops;
  check Alcotest.int "three violations" 3 (List.length (System.violations s))

let hm_partition_restart_on_memory_violation () =
  let tables =
    { Hm.default_tables with
      Hm.partition_actions =
        [ (pid 0, Error.Memory_violation, Error.Partition_cold_restart) ] }
  in
  (* The script reads an address far outside any mapped region. *)
  let script =
    Script.periodic_body [ Script.Compute 5; Script.Read_memory 0x7f00_0000 ]
  in
  let s = simple_system ~hm_tables:tables ~script ~capacity:100 () in
  System.run s ~ticks:250;
  check Alcotest.bool "fault reported" true
    (count_events
       (function
         | Event.Hm_error { code = Error.Memory_violation; _ } -> true
         | _ -> false)
       s
    > 0);
  check Alcotest.bool "partition restarted" true
    (count_events
       (function
         | Event.Partition_mode_change { mode = Partition.Cold_start; _ } ->
           true
         | _ -> false)
       s
    > 0);
  (* After a restart the partition re-initializes at its next dispatch and
     runs again (until the next fault); step past any in-progress restart. *)
  let rec settle n =
    if Partition.mode_equal (System.partition_mode s (pid 0)) Partition.Normal
    then true
    else if n = 0 then false
    else begin
      System.step s;
      settle (n - 1)
    end
  in
  check Alcotest.bool "back to normal" true (settle 10)

let hm_module_shutdown () =
  let tables =
    { Hm.default_tables with
      Hm.module_actions = [ (Error.Hardware_fault, Error.Module_shutdown) ] }
  in
  let s = simple_system ~hm_tables:tables ~capacity:1000 () in
  System.run s ~ticks:50;
  System.inject_module_error s Error.Hardware_fault ~detail:"SEU";
  check Alcotest.bool "halted" true (System.halted s <> None);
  let before = System.now s in
  System.run s ~ticks:50;
  check Alcotest.int "clock frozen after halt" before (System.now s)

(* A module shutdown raised inside a tick ends partition activity in that
   tick on every lane count: the prototype with P1's faulty process and a
   watchdog demanding slack the PSTs never leave halts at the first frame
   close (tick 1300), and nothing may follow the halt but the lanes'
   context switches of that same tick — no PAL announcement, no process
   release, no further HM error. *)
let hm_halt_stops_partitions () =
  let tables =
    { Hm.default_tables with
      Hm.module_actions =
        [ (Error.Temporal_degradation, Error.Module_shutdown) ] }
  in
  let telemetry =
    Air_obs.Telemetry.config
      ~default_watchdog:(Air_obs.Telemetry.watchdog ~min_slack:1 ())
      ()
  in
  List.iter
    (fun cores ->
      let cfg = Air_workload.Satellite.config ~hm_tables:tables () in
      let s =
        System.create
          { cfg with System.telemetry = Some telemetry; cores = Some cores }
      in
      Air_workload.Satellite.inject_fault s;
      System.run s ~ticks:2000;
      let what = Printf.sprintf "%d core(s)" cores in
      check Alcotest.bool (what ^ ": halted") true (System.halted s <> None);
      let rec after_halt = function
        | [] -> Alcotest.failf "%s: no module-halt event" what
        | (time, Event.Module_halt _) :: rest -> (time, rest)
        | _ :: rest -> after_halt rest
      in
      let halt_tick, rest = after_halt (Trace.to_list (System.trace s)) in
      check Alcotest.int (what ^ ": halt tick") 1300 halt_tick;
      List.iter
        (fun (time, ev) ->
          let ok =
            time = halt_tick
            && match ev with Event.Context_switch _ -> true | _ -> false
          in
          if not ok then
            Alcotest.failf "%s: [%d] %a after the halt" what time Event.pp ev)
        rest)
    [ 1; 2 ]

(* --- Memory access through scripts --------------------------------------- *)

let legitimate_memory_access_granted () =
  let s = simple_system ~capacity:1000 () in
  let region =
    match System.region_of s (pid 0) Air_spatial.Memory.Data with
    | Some r -> r
    | None -> Alcotest.fail "no data region"
  in
  (* Drive an in-bounds write via a fresh system whose script touches the
     partition's own data region. *)
  let script =
    Script.periodic_body
      [ Script.Compute 5; Script.Write_memory region.Air_spatial.Memory.base ]
  in
  let s = simple_system ~script ~capacity:1000 () in
  System.run s ~ticks:250;
  check Alcotest.bool "granted accesses" true
    (count_events
       (function
         | Event.Memory_access { granted = true; _ } -> true
         | _ -> false)
       s
    > 0);
  check Alcotest.int "no faults" 0
    (count_events
       (function
         | Event.Memory_access { granted = false; _ } -> true
         | _ -> false)
       s)

(* --- Generic (round-robin) partition ------------------------------------- *)

let generic_partition_coexists () =
  let rt =
    Partition.make ~id:(pid 0) ~name:"RT"
      [ Process.spec ~periodicity:(Process.Periodic 100) ~time_capacity:100
          ~wcet:20 ~base_priority:5 "control" ]
  in
  let gen =
    Partition.make ~id:(pid 1) ~name:"LINUX"
      [ Process.spec ~base_priority:10 "shell";
        Process.spec ~base_priority:10 "logger" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"mix" ~mtf:100
      ~requirements:[ q (pid 0) 100 40; q (pid 1) 100 60 ]
      [ w (pid 0) 0 40; w (pid 1) 40 60 ]
  in
  let s =
    System.create
      (System.config
         ~partitions:
           [ System.partition_setup rt
               [ Script.periodic_body [ Script.Compute 20 ] ];
             System.partition_setup gen
               ~policy:(Kernel.Round_robin { quantum = 5 })
               [ Script.make [ Script.Compute 1_000_000 ];
                 Script.make
                   [ Script.Compute 3; Script.Disable_interrupts ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:1000;
  (* The non-real-time partition cannot undermine the RT partition. *)
  check Alcotest.int "RT partition misses nothing" 0
    (List.length (System.violations s));
  (* The paravirtualization trap fired and was contained. *)
  check Alcotest.bool "trap logged" true
    (count_events
       (function
         | Event.Hm_error { code = Error.Illegal_request; _ } -> true
         | _ -> false)
       s
    > 0);
  check Alcotest.bool "still running" true (System.halted s = None);
  (* Round-robin shared the window between both generic processes. *)
  let k = System.kernel_of s (pid 1) in
  check Alcotest.bool "logger ran" true
    (not (Process.state_equal (Kernel.state k 1) Process.Dormant))

(* --- APEX services through scripts --------------------------------------- *)

let unauthorized_schedule_request_rejected () =
  let app =
    Partition.make ~id:(pid 0) ~name:"APP"
      [ Process.spec ~base_priority:5 "sneaky" ]
  in
  let s0 =
    Schedule.make ~id:(sid 0) ~name:"only" ~mtf:100
      ~requirements:[ q (pid 0) 100 50 ]
      [ w (pid 0) 0 50 ]
  in
  let s1 =
    Schedule.make ~id:(sid 1) ~name:"other" ~mtf:100
      ~requirements:[ q (pid 0) 100 50 ]
      [ w (pid 0) 0 50 ]
  in
  let s =
    System.create
      (System.config
         ~partitions:
           [ System.partition_setup app
               [ Script.make
                   [ Script.Compute 2; Script.Request_schedule 1;
                     Script.Timed_wait 1000 ] ] ]
         ~schedules:[ s0; s1 ] ())
  in
  System.run s ~ticks:400;
  (* The request from an application partition raises Illegal_request and
     no switch happens. *)
  check Alcotest.bool "illegal request raised" true
    (count_events
       (function
         | Event.Hm_error { code = Error.Illegal_request; _ } -> true
         | _ -> false)
       s
    > 0);
  check Alcotest.int "no switch" 0 (count_events Event.is_schedule_switch s)

let application_error_reaches_hm () =
  let script =
    Script.make [ Script.Compute 2; Script.Raise_application_error "boom";
                  Script.Timed_wait 500 ]
  in
  let s = simple_system ~script ~capacity:1000 () in
  System.run s ~ticks:100;
  check Alcotest.bool "application error" true
    (count_events
       (function
         | Event.Hm_error { code = Error.Application_error; level = Error.Process_level; _ } ->
           true
         | _ -> false)
       s
    > 0)

(* A trapped clock-interrupt disable is a process error the Health Monitor
   counts and answers, like any other: one probe process traps once per
   100-tick activation. *)
let interrupt_trap_reaches_hm () =
  let probe hm =
    let doc =
      Printf.sprintf
        {|(air-system
  (partitions
    (partition (name P)
      (processes
        (process (name guest) (priority 5)
          (script (compute 10) (disable-interrupts) (timed-wait 90))))))
  (schedules
    (schedule (name only) (mtf 100)
      (requirements (req (partition P) (cycle 100) (duration 100)))
      (windows (window (partition P) (offset 0) (duration 100)))))
  %s)|}
        hm
    in
    match Air_config.Loader.load doc with
    | Error e -> Alcotest.fail e
    | Ok cfg ->
      let s = System.create cfg in
      System.run s ~ticks:1000;
      let errors =
        match Air_obs.Metrics.find (System.metrics s) "hm.errors.process" with
        | Some (Air_obs.Metrics.Counter_value n) -> n
        | _ -> Alcotest.fail "no hm.errors.process counter"
      in
      let trapped =
        count_events
          (function
            | Event.Hm_error { code = Error.Illegal_request; _ } -> true
            | _ -> false)
          s
      in
      (s, errors, trapped)
  in
  let s, errors, trapped = probe "" in
  check Alcotest.int "one trap per activation" 11 trapped;
  check Alcotest.int "every trap counted" trapped errors;
  check Alcotest.bool "ignored by default" true
    (not
       (Process.state_equal (Kernel.state (System.kernel_of s (pid 0)) 0)
          Process.Dormant));
  let s, errors, trapped =
    probe "(hm (process-errors (P illegal-request stop-process)))"
  in
  check Alcotest.int "stopped at the first trap" 1 trapped;
  check Alcotest.int "that trap counted" 1 errors;
  check Alcotest.bool "stopped" true
    (Process.state_equal (Kernel.state (System.kernel_of s (pid 0)) 0)
       Process.Dormant)

let operator_stop_and_restart_partition () =
  let s = simple_system ~capacity:1000 () in
  System.run s ~ticks:50;
  Result.get_ok (System.restart_partition s (pid 0) Partition.Idle);
  check Alcotest.bool "idle" true
    (Partition.mode_equal (System.partition_mode s (pid 0)) Partition.Idle);
  System.run s ~ticks:50;
  Result.get_ok (System.restart_partition s (pid 0) Partition.Warm_start);
  System.run s ~ticks:50;
  check Alcotest.bool "back up" true
    (Partition.mode_equal (System.partition_mode s (pid 0)) Partition.Normal);
  check Alcotest.bool "reject normal" true
    (Result.is_error (System.restart_partition s (pid 0) Partition.Normal))

(* Paper Fig. 6: the APEX START service sets the deadline to t3 = now +
   time capacity and registers it with the PAL; a REPLENISH moves it to
   t4 = now + budget (keeping the store sorted); when t4 passes without
   completion, the miss is detected and reported to health monitoring. *)
let figure_6_scenario () =
  let p =
    Partition.make ~id:(pid 0) ~name:"FIG6"
      [ Process.spec ~periodicity:(Process.Periodic 1000) ~time_capacity:100
          ~wcet:500 ~base_priority:5 "worker" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"all" ~mtf:1000
      ~requirements:[ q (pid 0) 1000 1000 ]
      [ w (pid 0) 0 1000 ]
  in
  let s =
    System.create
      (System.config
         ~partitions:
           [ System.partition_setup p
               [ Script.make
                   [ Script.Compute 50; Script.Replenish 200;
                     Script.Compute 500 ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:400;
  let registrations =
    List.filter_map
      (fun (t, ev) ->
        match ev with
        | Event.Deadline_registered { deadline; _ } -> Some (t, deadline)
        | _ -> None)
      (Trace.to_list (System.trace s))
  in
  (match registrations with
  | (t_start, t3) :: (t_repl, t4) :: _ ->
    (* t3 = start instant + capacity. *)
    check Alcotest.int "t3 = start + capacity" (t_start + 100) t3;
    (* t4 = replenish instant + budget; the replenish happened after ~50
       ticks of computation. *)
    check Alcotest.int "t4 = replenish + budget" (t_repl + 200) t4;
    check Alcotest.bool "t4 extends t3" true (t4 > t3);
    (* The violation detected is of t4, not t3 — the store was updated. *)
    (match System.violations s with
    | [ (detected, _, d) ] ->
      check Alcotest.int "violated deadline is t4" t4 d;
      check Alcotest.int "detected right after t4" (t4 + 1) detected
    | v -> Alcotest.failf "expected exactly one violation, got %d" (List.length v))
  | _ -> Alcotest.fail "expected two deadline registrations")

let replenish_prevents_violation () =
  (* The positive side of Fig. 6: with a sufficient budget the process
     finishes within the replenished deadline and no miss is reported. *)
  let p =
    Partition.make ~id:(pid 0) ~name:"OK"
      [ Process.spec ~periodicity:(Process.Periodic 1000) ~time_capacity:100
          ~wcet:200 ~base_priority:5 "worker" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"all" ~mtf:1000
      ~requirements:[ q (pid 0) 1000 1000 ]
      [ w (pid 0) 0 1000 ]
  in
  let s =
    System.create
      (System.config
         ~partitions:
           [ System.partition_setup p
               [ (* Completion is signalled by PERIODIC_WAIT — without it
                    the (replenished) deadline would legitimately expire. *)
                 Script.periodic_body
                   [ Script.Compute 50; Script.Replenish 500;
                     Script.Compute 150 ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:900;
  check Alcotest.int "no violation" 0 (List.length (System.violations s))

(* The Fig. 6 worker (START, then one REPLENISH 50 ticks in) beside an
   aperiodic helper without a deadline that replenishes once at boot. *)
let replenish_system () =
  let p =
    Partition.make ~id:(pid 0) ~name:"FIG6"
      [ Process.spec ~periodicity:(Process.Periodic 1000) ~time_capacity:100
          ~wcet:500 ~base_priority:5 "worker";
        Process.spec ~base_priority:1 "helper" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"all" ~mtf:1000
      ~requirements:[ q (pid 0) 1000 1000 ]
      [ w (pid 0) 0 1000 ]
  in
  System.create
    (System.config
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Compute 50; Script.Replenish 200;
                   Script.Compute 500 ];
               Script.make [ Script.Replenish 100; Script.Timed_wait 10_000 ]
             ] ]
       ~schedules:[ schedule ] ())

(* REPLENISH re-registers a deadline through the kernel's PAL hook, which
   records the event: one [deadline-registered] per REPLENISH of a process
   with a deadline, none for a process without one. *)
let replenish_registers_once () =
  let s = replenish_system () in
  System.run s ~ticks:400;
  let registrations q =
    count_events
      (function
        | Event.Deadline_registered { process; _ } ->
          Process_id.index process = q
        | _ -> false)
      s
  in
  check Alcotest.int "worker: START and one REPLENISH" 2 (registrations 0);
  check Alcotest.int "helper: no deadline, no registration" 0
    (registrations 1);
  check Alcotest.bool "counter reads the events" true
    (Air_obs.Metrics.find (System.metrics s) "pal.deadlines_registered"
    = Some (Air_obs.Metrics.Counter_value 2))

let suite =
  [ Alcotest.test_case "prototype: clean run has no violations" `Quick
      prototype_clean_run;
    Alcotest.test_case "prototype: fault detected at every dispatch" `Quick
      prototype_fault_detected_every_dispatch;
    Alcotest.test_case "prototype: fault confined to P1" `Quick
      prototype_fault_confined_to_p1;
    Alcotest.test_case "prototype: switches introduce no violations" `Quick
      prototype_schedule_switch_no_extra_violations;
    Alcotest.test_case "prototype: interpartition traffic flows" `Quick
      prototype_interpartition_traffic_flows;
    Alcotest.test_case "prototype: activity matches the PST" `Quick
      prototype_activity_matches_pst;
    Alcotest.test_case "hm: default ignores (logs only)" `Quick
      hm_default_ignores;
    Alcotest.test_case "hm: stop process" `Quick hm_stop_process;
    Alcotest.test_case "hm: restart process" `Quick hm_restart_process;
    Alcotest.test_case "hm: log threshold" `Quick hm_log_threshold;
    Alcotest.test_case "hm: partition restart on memory violation" `Quick
      hm_partition_restart_on_memory_violation;
    Alcotest.test_case "hm: module shutdown" `Quick hm_module_shutdown;
    Alcotest.test_case "hm: halted module drives no partition" `Quick
      hm_halt_stops_partitions;
    Alcotest.test_case "memory: legitimate access granted" `Quick
      legitimate_memory_access_granted;
    Alcotest.test_case "generic partition coexists" `Quick
      generic_partition_coexists;
    Alcotest.test_case "apex: unauthorized schedule request" `Quick
      unauthorized_schedule_request_rejected;
    Alcotest.test_case "apex: application error reaches HM" `Quick
      application_error_reaches_hm;
    Alcotest.test_case "paravirtualization: interrupt trap reaches HM" `Quick
      interrupt_trap_reaches_hm;
    Alcotest.test_case "operator: stop and restart partition" `Quick
      operator_stop_and_restart_partition;
    Alcotest.test_case "paper Fig. 6: START/REPLENISH/violation" `Quick
      figure_6_scenario;
    Alcotest.test_case "paper Fig. 6: replenish prevents violation" `Quick
      replenish_prevents_violation;
    Alcotest.test_case "paper Fig. 6: one registration per REPLENISH" `Quick
      replenish_registers_once ]
