(* Direct tests of the APEX service layer: return codes, blocking
   semantics, schedule services, and the cross-partition queuing-port wake
   path — driven through a real System so the environment closures are the
   production ones. *)

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

(* A two-partition system where processes communicate over a queuing
   channel; the receiver blocks with an infinite timeout, the sender sends
   once per period. *)
let queuing_system ~receiver_timeout () =
  let sender = pid 0 and receiver = pid 1 in
  let network =
    { Air_ipc.Port.ports =
        [ Air_ipc.Port.queuing_port ~name:"OUT" ~partition:sender
            ~direction:Air_ipc.Port.Source ~depth:4 ~max_message_size:32;
          Air_ipc.Port.queuing_port ~name:"IN" ~partition:receiver
            ~direction:Air_ipc.Port.Destination ~depth:4 ~max_message_size:32 ];
      channels = [ { Air_ipc.Port.source = "OUT"; destinations = [ "IN" ] } ] }
  in
  let p0 =
    Partition.make ~id:sender ~name:"SENDER"
      [ Process.spec ~periodicity:(Process.Periodic 100) ~time_capacity:100
          ~wcet:10 ~base_priority:5 "tx" ]
  in
  let p1 =
    Partition.make ~id:receiver ~name:"RECEIVER"
      [ Process.spec ~base_priority:5 "rx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"duo" ~mtf:100
      ~requirements:
        [ q sender 100 30; q receiver 100 30 ]
      [ w sender 0 30; w receiver 30 30 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p0
             [ Script.periodic_body
                 [ Script.Compute 5; Script.Send_queuing ("OUT", "ping") ] ];
           System.partition_setup p1
             [ Script.make
                 [ Script.Receive_queuing ("IN", receiver_timeout);
                   Script.Log "got one" ] ] ]
       ~schedules:[ schedule ] ())

let blocked_receiver_woken_by_send () =
  let s = queuing_system ~receiver_timeout:Time.infinity () in
  System.run s ~ticks:500;
  (* The receiver loops: block on IN, get woken by the sender's message,
     log, block again — one log line per received message. *)
  let received =
    Trace.count
      (function
        | Event.Application_output { line = "got one"; _ } -> true
        | _ -> false)
      (System.trace s)
  in
  check Alcotest.bool "received several" true (received >= 3);
  (* Every send was consumed: nothing left pending. *)
  let r = System.router s in
  check Alcotest.int "drained" 0
    (Air_ipc.Router.pending r ~port:(Air_ipc.Router.resolve r "IN"))

let polling_receiver_sees_not_available () =
  let s = queuing_system ~receiver_timeout:Time.zero () in
  System.run s ~ticks:500;
  (* Polling never blocks: the rx process spins through its script. The
     messages still flow (receives happen when the queue is non-empty). *)
  check Alcotest.bool "still alive" true
    (match Kernel.state (System.kernel_of s (pid 1)) 0 with
    | Process.Dormant -> false
    | _ -> true)

let receive_timeout_expires () =
  (* No sender at all: the receiver times out. *)
  let receiver = pid 0 in
  let network =
    { Air_ipc.Port.ports =
        [ Air_ipc.Port.queuing_port ~name:"IN" ~partition:receiver
            ~direction:Air_ipc.Port.Destination ~depth:4 ~max_message_size:32 ];
      channels = [] }
  in
  let p =
    Partition.make ~id:receiver ~name:"LONELY"
      [ Process.spec ~base_priority:5 "rx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:100
      ~requirements:[ q receiver 100 100 ]
      [ w receiver 0 100 ]
  in
  let s =
    System.create
      (System.config ~network
         ~partitions:
           [ System.partition_setup p
               [ Script.make
                   [ Script.Receive_queuing ("IN", 40);
                     Script.Log "woke"; Script.Timed_wait 1000 ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:200;
  (* Woken by timeout at ~40, then parked. *)
  (match
     Trace.find_first
       (function
         | Event.Application_output { line = "woke"; _ } -> true
         | _ -> false)
       (System.trace s)
   with
  | Some (t, _) -> check Alcotest.bool "woke after timeout" true (t >= 40 && t < 60)
  | None -> Alcotest.fail "receiver never woke")

let remote_delivery_payload_reaches_mailbox () =
  (* Regression: the message that satisfies a blocked receiver must land in
     its mailbox, not be dropped after the pop from the router. *)
  let s = queuing_system ~receiver_timeout:Time.infinity () in
  (* Run until the receiver has blocked on IN (its window is [30,60)). *)
  System.run s ~ticks:35;
  check Alcotest.bool "receiver blocked" true
    (Process.state_equal (Kernel.state (System.kernel_of s (pid 1)) 0)
       Process.Waiting);
  (* Simulate the communication infrastructure delivering a frame. *)
  Result.get_ok
    (System.deliver_remote s
       ~port:(Air_ipc.Router.resolve (System.router s) "IN")
       (Bytes.of_string "pkt"));
  check Alcotest.bool "receiver woken" true
    (Process.state_equal (Kernel.state (System.kernel_of s (pid 1)) 0)
       Process.Ready);
  match Air_pos.Intra.take_delivery (System.intra_of s (pid 1)) ~process:0 with
  | Some m -> check Alcotest.string "payload" "pkt" (Bytes.to_string m)
  | None -> Alcotest.fail "payload was dropped"

(* --- Return codes through a hand-built env ------------------------------- *)

let simple_env () =
  let p = pid 0 in
  let partition =
    Partition.make ~id:p ~name:"ENV" ~kind:Partition.System
      [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
          ~wcet:5 ~base_priority:3 "a";
        Process.spec ~base_priority:7 "b" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"one" ~mtf:100
      ~requirements:[ q p 100 100 ]
      [ w p 0 100 ]
  in
  let other =
    Schedule.make ~id:(sid 1) ~name:"two" ~mtf:100
      ~requirements:[ q p 100 100 ]
      [ w p 0 100 ]
  in
  let s =
    System.create
      (System.config
         ~partitions:
           [ System.partition_setup partition
               ~autostart:[ ("b", false) ]
               [ Script.periodic_body [ Script.Compute 5 ];
                 Script.make [ Script.Timed_wait 10000 ] ] ]
         ~schedules:[ schedule; other ] ())
  in
  System.run s ~ticks:5;
  s

(* Reconstruct an env equivalent to the production one for direct calls. *)
let env_of s =
  let p = pid 0 in
  { Apex.partition =
      Partition.make ~id:p ~name:"ENV" ~kind:Partition.System
        [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
            ~wcet:5 ~base_priority:3 "a";
          Process.spec ~base_priority:7 "b" ];
    kernel = System.kernel_of s p;
    intra = System.intra_of s p;
    router = System.router s;
    lane = System.lane s;
    now = (fun () -> System.now s);
    emit = (fun _ -> ());
    report_process_error = (fun ~process:_ _ ~detail:_ -> ());
    report_partition_error = (fun _ ~detail:_ -> ());
    notify_port_delivery = (fun _ -> ());
    mode = (fun () -> System.partition_mode s p);
    set_mode = (fun _ -> ()) }

let rc = Alcotest.testable Apex.pp_return_code Apex.return_code_equal

let process_management_return_codes () =
  let s = simple_env () in
  let env = env_of s in
  (* Process b was not autostarted: START works once, twice is NO_ACTION. *)
  (match Apex.start env ~process:1 with
  | Apex.Done c -> check rc "start" Apex.No_error c
  | _ -> Alcotest.fail "start should complete");
  (match Apex.start env ~process:1 with
  | Apex.Done c -> check rc "double start" Apex.No_action c
  | _ -> Alcotest.fail "double start should complete");
  (match Apex.stop env ~process:1 with
  | Apex.Done c -> check rc "stop" Apex.No_error c
  | _ -> Alcotest.fail "stop should complete");
  (match Apex.stop env ~process:1 with
  | Apex.Done c -> check rc "double stop" Apex.No_action c
  | _ -> Alcotest.fail "double stop should complete");
  (match Apex.set_priority env ~process:99 ~priority:1 with
  | Apex.Done c -> check rc "bad process" Apex.Invalid_param c
  | _ -> Alcotest.fail "set_priority should complete");
  (match Apex.get_process_status env ~process:0 with
  | Ok status ->
    check Alcotest.int "priority" 3 status.Process.current_priority
  | Error _ -> Alcotest.fail "status should be available");
  match Apex.get_process_status env ~process:99 with
  | Error c -> check rc "status bad index" Apex.Invalid_param c
  | Ok _ -> Alcotest.fail "expected error"

let schedule_services () =
  let s = simple_env () in
  let env = env_of s in
  let status = Apex.get_module_schedule_status env in
  check Alcotest.bool "current is 0" true
    (Schedule_id.equal status.Apex.current_schedule (sid 0));
  check Alcotest.bool "no switch yet" true
    (Time.equal status.Apex.time_of_last_schedule_switch Time.zero);
  (* System partition: allowed. *)
  (match Apex.set_module_schedule env ~process:0 (sid 1) with
  | Apex.Done c -> check rc "switch accepted" Apex.No_error c
  | _ -> Alcotest.fail "should complete");
  let status = Apex.get_module_schedule_status env in
  check Alcotest.bool "next is 1" true
    (Schedule_id.equal status.Apex.next_schedule (sid 1));
  (* Unknown schedule. *)
  (match Apex.set_module_schedule env ~process:0 (sid 9) with
  | Apex.Done c -> check rc "unknown schedule" Apex.Invalid_param c
  | _ -> Alcotest.fail "should complete")

let partition_status () =
  let s = simple_env () in
  let env = env_of s in
  let st = Apex.get_partition_status env in
  check Alcotest.bool "normal" true
    (Partition.mode_equal st.Apex.operating_mode Partition.Normal);
  check Alcotest.bool "system kind" true
    (Partition.kind_equal st.Apex.partition_kind Partition.System)

let replenish_registers () =
  let s = simple_env () in
  let env = env_of s in
  (match Apex.replenish env ~process:0 500 with
  | Apex.Done c -> check rc "replenish" Apex.No_error c
  | _ -> Alcotest.fail "should complete");
  let pal = System.pal_of s (pid 0) in
  match Pal.deadline_of pal ~process:0 with
  | Some d ->
    check Alcotest.int "deadline = now + budget" (System.now s + 500) d
  | None -> Alcotest.fail "deadline should be registered"

let port_errors_via_apex () =
  let s = queuing_system ~receiver_timeout:Time.zero () in
  System.run s ~ticks:5;
  (* Build an env for the SENDER partition and misuse its ports. *)
  let env =
    { Apex.partition =
        Partition.make ~id:(pid 0) ~name:"SENDER"
          [ Process.spec ~base_priority:5 "tx" ];
      kernel = System.kernel_of s (pid 0);
      intra = System.intra_of s (pid 0);
      router = System.router s;
      lane = System.lane s;
      now = (fun () -> System.now s);
      emit = (fun _ -> ());
      report_process_error = (fun ~process:_ _ ~detail:_ -> ());
      report_partition_error = (fun _ ~detail:_ -> ());
      notify_port_delivery = (fun _ -> ());
      mode = (fun () -> Partition.Normal);
      set_mode = (fun _ -> ()) }
  in
  (* Ports are bound by ID, as boot binds a script's ports. *)
  let port = Air_ipc.Router.resolve (System.router s) in
  (* Sampling operation on a queuing port. *)
  (match
     Apex.write_sampling_message env ~process:0 ~port:(port "OUT")
       (Bytes.of_string "x")
   with
  | Apex.Done c -> check rc "wrong mode" Apex.Invalid_mode c
  | _ -> Alcotest.fail "should complete");
  (* Unknown port. *)
  (match Apex.read_sampling_message env ~process:0 ~port:(port "NOPE") with
  | Apex.Done c -> check rc "unknown port" Apex.Invalid_config c
  | _ -> Alcotest.fail "should complete");
  (* Receiving on another partition's port. *)
  match
    Apex.receive_queuing_message env ~process:0 ~port:(port "IN") ~timeout:0
  with
  | Apex.Done c -> check rc "not owner" Apex.Invalid_config c
  | _ -> Alcotest.fail "should complete"

let suite =
  [ Alcotest.test_case "blocked receiver woken by cross-partition send"
      `Quick blocked_receiver_woken_by_send;
    Alcotest.test_case "polling receiver never blocks" `Quick
      polling_receiver_sees_not_available;
    Alcotest.test_case "receive timeout expires" `Quick receive_timeout_expires;
    Alcotest.test_case "remote delivery payload reaches mailbox" `Quick
      remote_delivery_payload_reaches_mailbox;
    Alcotest.test_case "process management return codes" `Quick
      process_management_return_codes;
    Alcotest.test_case "schedule services" `Quick schedule_services;
    Alcotest.test_case "partition status" `Quick partition_status;
    Alcotest.test_case "replenish registers with the PAL" `Quick
      replenish_registers;
    Alcotest.test_case "port errors mapped to return codes" `Quick
      port_errors_via_apex ]
