(* Tests for the POS kernel (heir selection per eq. (14), releases, waits,
   timeouts, round-robin policy) and the intrapartition objects. *)

open Air_sim
open Air_model
open Air_pos

let check = Alcotest.check
let pid = Ident.Partition_id.make

let periodic ?(priority = 10) ?(capacity = 100) ~period name =
  Process.spec ~periodicity:(Process.Periodic period) ~time_capacity:capacity
    ~base_priority:priority name

let aperiodic ?(priority = 10) name = Process.spec ~base_priority:priority name

let make_kernel ?(policy = Kernel.Priority_preemptive) ?(hooks = Kernel.null_hooks)
    specs =
  Kernel.create ~partition:(pid 0) ~policy ~hooks (Array.of_list specs)

let state_is k q expected =
  check Alcotest.bool
    (Format.asprintf "state of %d is %a" q Process.pp_state expected)
    true
    (Process.state_equal (Kernel.state k q) expected)

(* --- eq. (14): heir selection ------------------------------------------- *)

let heir_priority_order () =
  let k =
    make_kernel
      [ aperiodic ~priority:20 "low"; aperiodic ~priority:5 "high";
        aperiodic ~priority:10 "mid" ]
  in
  List.iter (fun q -> Result.get_ok (Kernel.start k ~now:0 q) |> ignore) [ 0; 1; 2 ];
  check (Alcotest.option Alcotest.int) "highest priority wins" (Some 1)
    (Kernel.schedule k ~now:0);
  state_is k 1 Process.Running;
  state_is k 0 Process.Ready

let heir_antiquity_tie_break () =
  (* Equal priorities: the process that has been ready the longest wins. *)
  let k = make_kernel [ aperiodic "a"; aperiodic "b" ] in
  ignore (Kernel.start k ~now:0 1);
  ignore (Kernel.start k ~now:0 0);
  (* 1 became ready before 0 — antiquity, not index, decides. *)
  check (Alcotest.option Alcotest.int) "older wins" (Some 1)
    (Kernel.schedule k ~now:0)

let running_not_preempted_by_equal () =
  let k = make_kernel [ aperiodic "a"; aperiodic "b" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.schedule k ~now:0);
  ignore (Kernel.start k ~now:1 1);
  check (Alcotest.option Alcotest.int) "keeps running" (Some 0)
    (Kernel.schedule k ~now:1)

let preemption_by_higher_priority () =
  let k = make_kernel [ aperiodic ~priority:10 "a"; aperiodic ~priority:1 "b" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.schedule k ~now:0);
  ignore (Kernel.start k ~now:1 1);
  check (Alcotest.option Alcotest.int) "preempted" (Some 1)
    (Kernel.schedule k ~now:1);
  state_is k 0 Process.Ready

let set_priority_reorders () =
  let k = make_kernel [ aperiodic ~priority:10 "a"; aperiodic ~priority:20 "b" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 1);
  ignore (Kernel.set_priority k 1 1);
  check (Alcotest.option Alcotest.int) "after set_priority" (Some 1)
    (Kernel.schedule k ~now:0)

(* --- Lifecycle ----------------------------------------------------------- *)

let start_stop_lifecycle () =
  let k = make_kernel [ aperiodic "a" ] in
  state_is k 0 Process.Dormant;
  (match Kernel.stop k 0 with
  | Error Kernel.Already_dormant -> ()
  | _ -> Alcotest.fail "expected Already_dormant");
  ignore (Kernel.start k ~now:0 0);
  state_is k 0 Process.Ready;
  (match Kernel.start k ~now:0 0 with
  | Error Kernel.Not_dormant -> ()
  | _ -> Alcotest.fail "expected Not_dormant");
  ignore (Kernel.stop k 0);
  state_is k 0 Process.Dormant

let delayed_start_releases_later () =
  let k = make_kernel [ periodic ~period:50 ~capacity:30 "p" ] in
  ignore (Kernel.start k ~now:0 ~delay:10 0);
  state_is k 0 Process.Waiting;
  Kernel.announce_ticks k ~now:5;
  state_is k 0 Process.Waiting;
  Kernel.announce_ticks k ~now:10;
  state_is k 0 Process.Ready;
  (* Deadline armed at release: 10 + 30. *)
  check Alcotest.int "deadline" 40 (Kernel.status k 0).Process.deadline_time

let periodic_wait_and_release () =
  let registered = ref [] in
  let hooks =
    { Kernel.null_hooks with
      Kernel.register_deadline =
        (fun ~process d -> registered := (process, d) :: !registered) }
  in
  let k = make_kernel ~hooks [ periodic ~period:50 ~capacity:20 "p" ] in
  ignore (Kernel.start k ~now:0 0);
  check Alcotest.(list (pair int int)) "deadline at start" [ (0, 20) ] !registered;
  ignore (Kernel.schedule k ~now:0);
  ignore (Kernel.periodic_wait k ~now:7 0);
  state_is k 0 Process.Waiting;
  (* Next release point is 50 (first release + period), not 57. *)
  Kernel.announce_ticks k ~now:49;
  state_is k 0 Process.Waiting;
  Kernel.announce_ticks k ~now:50;
  state_is k 0 Process.Ready;
  check Alcotest.int "second deadline = release + capacity" 70
    (Kernel.status k 0).Process.deadline_time;
  check Alcotest.int "activations" 2 (Kernel.activations k 0)

let overrun_keeps_missed_release () =
  let k = make_kernel [ periodic ~period:50 ~capacity:20 "p" ] in
  ignore (Kernel.start k ~now:0 0);
  (* The process overruns past its next release point (50) and only calls
     PERIODIC_WAIT at t=80: it becomes ready again immediately with the
     deadline of the missed release (50 + 20). *)
  ignore (Kernel.periodic_wait k ~now:80 0);
  Kernel.announce_ticks k ~now:80;
  state_is k 0 Process.Ready;
  check Alcotest.int "past deadline armed" 70
    (Kernel.status k 0).Process.deadline_time

let periodic_wait_rejected_for_aperiodic () =
  let k = make_kernel [ aperiodic "a" ] in
  ignore (Kernel.start k ~now:0 0);
  match Kernel.periodic_wait k ~now:0 0 with
  | Error Kernel.Not_periodic -> ()
  | _ -> Alcotest.fail "expected Not_periodic"

let timed_wait_wakes () =
  let k = make_kernel [ aperiodic "a" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.timed_wait k ~now:0 0 25);
  state_is k 0 Process.Waiting;
  Kernel.announce_ticks k ~now:24;
  state_is k 0 Process.Waiting;
  Kernel.announce_ticks k ~now:25;
  state_is k 0 Process.Ready;
  check Alcotest.bool "not a timeout" false (Kernel.take_timed_out k 0)

let suspend_resume () =
  let k = make_kernel [ aperiodic "a"; periodic ~period:10 "p" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 1);
  (match Kernel.suspend k ~now:0 1 with
  | Error Kernel.Invalid_for_periodic -> ()
  | _ -> Alcotest.fail "periodic processes cannot be suspended");
  ignore (Kernel.suspend k ~now:0 0);
  state_is k 0 Process.Waiting;
  (match Kernel.resume k ~now:1 0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "resume failed");
  state_is k 0 Process.Ready;
  (match Kernel.resume k ~now:1 0 with
  | Error Kernel.Not_waiting -> ()
  | _ -> Alcotest.fail "expected Not_waiting")

let suspend_timeout_sets_flag () =
  let k = make_kernel [ aperiodic "a" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.suspend k ~now:0 ~timeout:10 0);
  Kernel.announce_ticks k ~now:10;
  state_is k 0 Process.Ready;
  check Alcotest.bool "timed out" true (Kernel.take_timed_out k 0);
  check Alcotest.bool "flag cleared" false (Kernel.take_timed_out k 0)

let replenish_updates_deadline () =
  let k = make_kernel [ periodic ~period:100 ~capacity:30 "p" ] in
  ignore (Kernel.start k ~now:0 0);
  check Alcotest.int "initial" 30 (Kernel.status k 0).Process.deadline_time;
  ignore (Kernel.replenish k ~now:25 0 50);
  (* Paper Fig. 6: new deadline = current instant + budget. *)
  check Alcotest.int "replenished" 75 (Kernel.status k 0).Process.deadline_time

let stop_all_clears () =
  let unregistered = ref 0 in
  let hooks =
    { Kernel.null_hooks with
      Kernel.unregister_deadline = (fun ~process:_ -> incr unregistered) }
  in
  let k =
    make_kernel ~hooks [ periodic ~period:10 "a"; periodic ~period:10 "b" ]
  in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 1);
  Kernel.stop_all k;
  state_is k 0 Process.Dormant;
  state_is k 1 Process.Dormant;
  check Alcotest.int "deadlines unregistered" 2 !unregistered

let round_robin_rotates () =
  let k =
    make_kernel ~policy:(Kernel.Round_robin { quantum = 2 })
      [ aperiodic "a"; aperiodic "b"; aperiodic "c" ]
  in
  List.iter (fun q -> ignore (Kernel.start k ~now:0 q)) [ 0; 1; 2 ];
  let order = List.init 6 (fun i -> Kernel.schedule k ~now:i) in
  (* quantum 2: each process runs two consecutive ticks. *)
  check
    Alcotest.(list (option int))
    "rotation"
    [ Some 1; Some 1; Some 2; Some 2; Some 0; Some 0 ]
    order

let round_robin_skips_blocked () =
  let k =
    make_kernel ~policy:(Kernel.Round_robin { quantum = 1 })
      [ aperiodic "a"; aperiodic "b" ]
  in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 1);
  ignore (Kernel.schedule k ~now:0);
  ignore (Kernel.timed_wait k ~now:0 1 100);
  check (Alcotest.option Alcotest.int) "only runnable" (Some 0)
    (Kernel.schedule k ~now:1);
  check (Alcotest.option Alcotest.int) "still" (Some 0) (Kernel.schedule k ~now:2)

let ready_set_matches_eq15 () =
  let k = make_kernel [ aperiodic "a"; aperiodic "b"; aperiodic "c" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 2);
  ignore (Kernel.schedule k ~now:0);
  (* Ready_m(t) = ready or running processes. *)
  check Alcotest.(list int) "ready set" [ 0; 2 ] (Kernel.ready_set k)

let no_lost_activations_across_blackouts () =
  (* Releases that pass while the partition is inactive are served in
     order when ticks are finally announced: the process re-releases
     immediately at each missed release point, so activations are counted
     and deadlines armed for every period. *)
  let k = make_kernel [ periodic ~period:50 ~capacity:50 "p" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.schedule k ~now:0);
  ignore (Kernel.periodic_wait k ~now:5 0);
  (* A long blackout: announce only at t = 200, with releases due at 50,
     100, 150, 200. *)
  Kernel.announce_ticks k ~now:200;
  state_is k 0 Process.Ready;
  check Alcotest.int "second activation released" 2 (Kernel.activations k 0);
  (* Completing it immediately re-releases at the next (missed) point. *)
  ignore (Kernel.schedule k ~now:200);
  ignore (Kernel.periodic_wait k ~now:200 0);
  Kernel.announce_ticks k ~now:200;
  check Alcotest.int "third activation" 3 (Kernel.activations k 0);
  (* Its deadline is the missed release + capacity, already in the past —
     the PAL will catch it, which is the correct overload signal. *)
  check Alcotest.int "deadline of missed release" 150
    (Kernel.status k 0).Process.deadline_time

let find_by_name_works () =
  let k = make_kernel [ aperiodic "alpha"; aperiodic "beta" ] in
  check (Alcotest.option Alcotest.int) "beta" (Some 1)
    (Kernel.find_by_name k "beta");
  check (Alcotest.option Alcotest.int) "missing" None
    (Kernel.find_by_name k "gamma")

(* --- Intra objects ------------------------------------------------------- *)

let intra_fixture () =
  let k = make_kernel [ aperiodic "a"; aperiodic "b"; aperiodic "c" ] in
  List.iter (fun q -> ignore (Kernel.start k ~now:0 q)) [ 0; 1; 2 ];
  (k, Intra.create k)

let semaphore_counting () =
  let k, i = intra_fixture () in
  Result.get_ok
    (Intra.create_semaphore i ~name:"sem" ~initial:1 ~maximum:2 Intra.Fifo);
  check Alcotest.bool "acquire" true
    (Intra.wait_semaphore i ~now:0 ~process:0 ~name:"sem" ~timeout:Time.infinity
     = `Done);
  (* Now empty: polling fails, blocking blocks. *)
  check Alcotest.bool "poll" true
    (Intra.wait_semaphore i ~now:0 ~process:1 ~name:"sem" ~timeout:0
     = `Unavailable);
  check Alcotest.bool "block" true
    (Intra.wait_semaphore i ~now:0 ~process:1 ~name:"sem"
       ~timeout:Time.infinity
     = `Blocked);
  state_is k 1 Process.Waiting;
  (* Signal hands the semaphore to the waiter. *)
  check Alcotest.bool "signal" true (Intra.signal_semaphore i ~now:1 ~name:"sem" = `Done);
  state_is k 1 Process.Ready;
  check (Alcotest.option Alcotest.int) "count still 0" (Some 0)
    (Intra.semaphore_value i ~name:"sem");
  (* Signalling with no waiters increments up to the maximum. *)
  ignore (Intra.signal_semaphore i ~now:1 ~name:"sem");
  ignore (Intra.signal_semaphore i ~now:1 ~name:"sem");
  check Alcotest.bool "at max" true
    (Intra.signal_semaphore i ~now:1 ~name:"sem" = `Unavailable)

let semaphore_timeout () =
  let k, i = intra_fixture () in
  Result.get_ok
    (Intra.create_semaphore i ~name:"sem" ~initial:0 ~maximum:1 Intra.Fifo);
  ignore (Intra.wait_semaphore i ~now:0 ~process:0 ~name:"sem" ~timeout:10);
  Kernel.announce_ticks k ~now:10;
  state_is k 0 Process.Ready;
  check Alcotest.bool "timed out" true (Kernel.take_timed_out k 0)

let event_broadcast () =
  let k, i = intra_fixture () in
  Result.get_ok (Intra.create_event i ~name:"ev");
  ignore (Intra.wait_event i ~now:0 ~process:0 ~name:"ev" ~timeout:Time.infinity);
  ignore (Intra.wait_event i ~now:0 ~process:1 ~name:"ev" ~timeout:Time.infinity);
  state_is k 0 Process.Waiting;
  state_is k 1 Process.Waiting;
  ignore (Intra.set_event i ~now:1 ~name:"ev");
  (* SET wakes every waiter. *)
  state_is k 0 Process.Ready;
  state_is k 1 Process.Ready;
  (* Event stays up until reset. *)
  check Alcotest.bool "up: immediate" true
    (Intra.wait_event i ~now:2 ~process:2 ~name:"ev" ~timeout:Time.infinity
     = `Done);
  ignore (Intra.reset_event i ~name:"ev");
  check (Alcotest.option Alcotest.bool) "down" (Some false)
    (Intra.event_is_up i ~name:"ev")

let blackboard_semantics () =
  let k, i = intra_fixture () in
  Result.get_ok (Intra.create_blackboard i ~name:"bb" ~max_message_size:16);
  (* Empty board blocks a reader; display wakes it with the message. *)
  (match Intra.read_blackboard i ~now:0 ~process:0 ~name:"bb" ~timeout:Time.infinity with
  | `Blocked -> ()
  | _ -> Alcotest.fail "expected block");
  ignore (Intra.display_blackboard i ~now:1 ~name:"bb" (Bytes.of_string "msg"));
  state_is k 0 Process.Ready;
  check (Alcotest.option Alcotest.string) "delivered" (Some "msg")
    (Option.map Bytes.to_string (Intra.take_delivery i ~process:0));
  (* Non-destructive read once displayed. *)
  (match Intra.read_blackboard i ~now:2 ~process:1 ~name:"bb" ~timeout:0 with
  | `Read m -> check Alcotest.string "read" "msg" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected read");
  ignore (Intra.clear_blackboard i ~name:"bb");
  (match Intra.read_blackboard i ~now:3 ~process:1 ~name:"bb" ~timeout:0 with
  | `Unavailable -> ()
  | _ -> Alcotest.fail "expected empty after clear");
  check Alcotest.bool "too large" true
    (Intra.display_blackboard i ~now:4 ~name:"bb" (Bytes.make 32 'x')
     = `Message_too_large)

let buffer_fifo_and_blocking () =
  let k, i = intra_fixture () in
  Result.get_ok
    (Intra.create_buffer i ~name:"buf" ~depth:1 ~max_message_size:16 Intra.Fifo);
  (* Send to empty buffer with no readers: enqueued. *)
  check Alcotest.bool "send" true
    (Intra.send_buffer i ~now:0 ~process:0 ~name:"buf" (Bytes.of_string "m1")
       ~timeout:Time.infinity
     = `Done);
  (* Buffer full: poll fails, blocking sender parks its message. *)
  check Alcotest.bool "full poll" true
    (Intra.send_buffer i ~now:0 ~process:0 ~name:"buf" (Bytes.of_string "m2")
       ~timeout:0
     = `Unavailable);
  check Alcotest.bool "blocked send" true
    (Intra.send_buffer i ~now:0 ~process:0 ~name:"buf" (Bytes.of_string "m2")
       ~timeout:Time.infinity
     = `Blocked);
  state_is k 0 Process.Waiting;
  (* Receive frees space and admits the parked message. *)
  (match Intra.receive_buffer i ~now:1 ~process:1 ~name:"buf" ~timeout:0 with
  | `Read m -> check Alcotest.string "fifo" "m1" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected m1");
  state_is k 0 Process.Ready;
  check (Alcotest.option Alcotest.int) "m2 queued" (Some 1)
    (Intra.buffer_occupancy i ~name:"buf");
  (* Blocked reader is served directly by the next send. *)
  (match Intra.receive_buffer i ~now:2 ~process:1 ~name:"buf" ~timeout:0 with
  | `Read m -> check Alcotest.string "m2" "m2" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected m2");
  (match Intra.receive_buffer i ~now:3 ~process:1 ~name:"buf" ~timeout:Time.infinity with
  | `Blocked -> ()
  | _ -> Alcotest.fail "expected block");
  ignore
    (Intra.send_buffer i ~now:4 ~process:2 ~name:"buf" (Bytes.of_string "m3")
       ~timeout:0);
  state_is k 1 Process.Ready;
  check (Alcotest.option Alcotest.string) "direct delivery" (Some "m3")
    (Option.map Bytes.to_string (Intra.take_delivery i ~process:1))

let object_creation_errors () =
  let _, i = intra_fixture () in
  Result.get_ok (Intra.create_event i ~name:"ev");
  (match Intra.create_event i ~name:"ev" with
  | Error (Intra.Already_exists _) -> ()
  | _ -> Alcotest.fail "expected Already_exists");
  (match Intra.create_semaphore i ~name:"s" ~initial:5 ~maximum:2 Intra.Fifo with
  | Error (Intra.Bad_parameter _) -> ()
  | _ -> Alcotest.fail "expected Bad_parameter");
  check Alcotest.bool "missing object" true
    (Intra.signal_semaphore i ~now:0 ~name:"nope" = `No_such_object)

let priority_discipline_order () =
  let k = make_kernel [ aperiodic ~priority:9 "lo"; aperiodic ~priority:1 "hi" ] in
  ignore (Kernel.start k ~now:0 0);
  ignore (Kernel.start k ~now:0 1);
  let i = Intra.create k in
  Result.get_ok
    (Intra.create_semaphore i ~name:"s" ~initial:0 ~maximum:1 Intra.Priority);
  (* lo blocks first, hi second; priority discipline serves hi first. *)
  ignore (Intra.wait_semaphore i ~now:0 ~process:0 ~name:"s" ~timeout:Time.infinity);
  ignore (Intra.wait_semaphore i ~now:0 ~process:1 ~name:"s" ~timeout:Time.infinity);
  ignore (Intra.signal_semaphore i ~now:1 ~name:"s");
  state_is k 1 Process.Ready;
  state_is k 0 Process.Waiting

let suite =
  [ Alcotest.test_case "heir: priority order (eq. 14)" `Quick
      heir_priority_order;
    Alcotest.test_case "heir: antiquity tie-break" `Quick
      heir_antiquity_tie_break;
    Alcotest.test_case "heir: no preemption by equals" `Quick
      running_not_preempted_by_equal;
    Alcotest.test_case "heir: preemption by higher priority" `Quick
      preemption_by_higher_priority;
    Alcotest.test_case "set_priority reorders" `Quick set_priority_reorders;
    Alcotest.test_case "start/stop lifecycle" `Quick start_stop_lifecycle;
    Alcotest.test_case "delayed start" `Quick delayed_start_releases_later;
    Alcotest.test_case "periodic wait and release" `Quick
      periodic_wait_and_release;
    Alcotest.test_case "overrun keeps missed release" `Quick
      overrun_keeps_missed_release;
    Alcotest.test_case "periodic wait rejected for aperiodic" `Quick
      periodic_wait_rejected_for_aperiodic;
    Alcotest.test_case "timed wait wakes" `Quick timed_wait_wakes;
    Alcotest.test_case "suspend/resume" `Quick suspend_resume;
    Alcotest.test_case "suspend timeout flag" `Quick suspend_timeout_sets_flag;
    Alcotest.test_case "replenish updates deadline" `Quick
      replenish_updates_deadline;
    Alcotest.test_case "stop_all clears" `Quick stop_all_clears;
    Alcotest.test_case "round robin rotates" `Quick round_robin_rotates;
    Alcotest.test_case "round robin skips blocked" `Quick
      round_robin_skips_blocked;
    Alcotest.test_case "ready set (eq. 15)" `Quick ready_set_matches_eq15;
    Alcotest.test_case "find_by_name" `Quick find_by_name_works;
    Alcotest.test_case "no lost activations across blackouts" `Quick
      no_lost_activations_across_blackouts;
    Alcotest.test_case "semaphore counting" `Quick semaphore_counting;
    Alcotest.test_case "semaphore timeout" `Quick semaphore_timeout;
    Alcotest.test_case "event broadcast" `Quick event_broadcast;
    Alcotest.test_case "blackboard semantics" `Quick blackboard_semantics;
    Alcotest.test_case "buffer FIFO and blocking" `Quick
      buffer_fifo_and_blocking;
    Alcotest.test_case "object creation errors" `Quick object_creation_errors;
    Alcotest.test_case "priority queuing discipline" `Quick
      priority_discipline_order ]
