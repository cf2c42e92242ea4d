(* Flight-recorder tests: span recording semantics, Chrome trace-event
   export, the temporal-invariant replay checker, and the end-to-end
   System integration. *)

open Air_model
open Air_pos
open Air_obs

(* [open Air_obs] shadows the model's event type with the event sink. *)
module Event = Air_model.Event

let check = Alcotest.check
let contains hay needle = Astring_contains.contains hay needle
let pid = Ident.Partition_id.make
let sid = Ident.Schedule_id.make
let proc m q = Ident.Process_id.make (pid m) q

(* --- Span recorder --------------------------------------------------------- *)

let span_nesting () =
  let r = Span.create () in
  Span.begin_span r ~now:0 ~track:0 "outer";
  Span.begin_span r ~now:2 ~track:0 "inner";
  Span.end_span r ~now:5 ~track:0;
  Span.end_span r ~now:9 ~track:0;
  match Span.spans r with
  | [ inner; outer ] ->
    check Alcotest.string "innermost closes first" "inner" inner.Span.name;
    check Alcotest.int "inner start" 2 inner.Span.start;
    check Alcotest.int "inner stop" 5 inner.Span.stop;
    check Alcotest.string "outer closes last" "outer" outer.Span.name;
    check Alcotest.int "outer start" 0 outer.Span.start;
    check Alcotest.int "outer stop" 9 outer.Span.stop;
    check Alcotest.bool "both complete" true
      (inner.Span.phase = Span.Complete && outer.Span.phase = Span.Complete)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let span_tracks_are_independent () =
  let r = Span.create () in
  Span.begin_span r ~now:0 ~track:0 "a";
  Span.begin_span r ~now:1 ~track:3 "b";
  Span.end_span r ~now:2 ~track:0;
  check Alcotest.int "track 3 still open" 1 (Span.depth r ~track:3);
  check Alcotest.int "track 0 closed" 0 (Span.depth r ~track:0);
  check Alcotest.int "one completed" 1 (Span.length r);
  check Alcotest.int "no mismatch" 0 (Span.mismatches r)

let span_mismatched_end () =
  let r = Span.create () in
  Span.end_span r ~now:4 ~track:1;
  check Alcotest.int "counted" 1 (Span.mismatches r);
  check Alcotest.int "nothing recorded" 0 (Span.length r)

let span_bounded_retention () =
  let r = Span.create ~capacity:3 () in
  for i = 0 to 9 do
    Span.instant r ~now:i ~track:0 "i"
  done;
  check Alcotest.int "retains capacity" 3 (Span.length r);
  check Alcotest.int "total keeps counting" 10 (Span.total r);
  check
    Alcotest.(list int)
    "keeps the most recent, oldest first" [ 7; 8; 9 ]
    (List.map (fun s -> s.Span.start) (Span.spans r))

let span_open_spans () =
  let r = Span.create () in
  Span.begin_span r ~now:0 ~track:0 "outer";
  Span.begin_span r ~now:3 ~track:0 "inner";
  (match Span.open_spans r ~now:7 with
  | [ outer; inner ] ->
    check Alcotest.string "outermost first" "outer" outer.Span.name;
    check Alcotest.int "horizon stop" 7 outer.Span.stop;
    check Alcotest.bool "marked open" true
      (outer.Span.phase = Span.Open && inner.Span.phase = Span.Open)
  | spans -> Alcotest.failf "expected 2 open, got %d" (List.length spans));
  (* Observation does not consume the stacks. *)
  check Alcotest.int "still open" 2 (Span.depth r ~track:0)

(* --- Chrome export --------------------------------------------------------- *)

let chrome_spans () =
  [ { Span.name = "partition-window"; track = 0; sub = 0; start = 0;
      stop = 10; detail = "S"; phase = Span.Complete };
    { Span.name = "mark"; track = -1; sub = 0; start = 4; stop = 4;
      detail = ""; phase = Span.Instant };
    { Span.name = "running"; track = 1; sub = 2; start = 6; stop = 9;
      detail = ""; phase = Span.Open } ]

let export_is_valid_json () =
  let json =
    Trace_export.to_chrome
      ~tracks:[ (-1, "AIR module"); (0, "P1") ]
      ~events:[ (3, "tick", "detail with \"quotes\"\nand newline") ]
      (chrome_spans ())
  in
  (match Json_lint.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid JSON: %s" e);
  (* The structural mapping: partition track 0 → pid 1, module → pid 0,
     sub 2 → tid 3, open span → lone B, instants/events → dur 0. *)
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " present") true (contains json needle))
    [ "\"ph\":\"X\"";
      "\"ph\":\"B\"";
      "\"ph\":\"M\"";
      "\"pid\":1,\"tid\":1";
      "\"pid\":2,\"tid\":3";
      "\"dur\":10";
      "\"name\":\"AIR module\"";
      "\\n" ];
  check Alcotest.bool "no raw newline inside strings" true
    (not (contains json "quotes\"\nand"))

let export_sorts_by_timestamp () =
  let json =
    Trace_export.to_chrome
      [ { Span.name = "late"; track = 0; sub = 0; start = 9; stop = 9;
          detail = ""; phase = Span.Instant };
        { Span.name = "early"; track = 0; sub = 0; start = 1; stop = 1;
          detail = ""; phase = Span.Instant } ]
  in
  let find needle =
    let n = String.length needle and l = String.length json in
    let rec go i = if i + n > l then -1
      else if String.sub json i n = needle then i else go (i + 1)
    in
    go 0
  in
  let i_early = find "\"early\"" and i_late = find "\"late\"" in
  check Alcotest.bool "both present" true (i_early >= 0 && i_late >= 0);
  check Alcotest.bool "early before late" true (i_early < i_late)

(* --- Replay checker -------------------------------------------------------- *)

(* Two-partition scheduling tables: S0 runs P0 then P1 over an MTF of 20;
   S1 swaps the order and warm-restarts P0 at its first dispatch. *)
let s0 =
  Schedule.make ~id:(sid 0) ~name:"S0" ~mtf:20
    ~requirements:
      [ { Schedule.partition = pid 0; cycle = 20; duration = 10 };
        { Schedule.partition = pid 1; cycle = 20; duration = 10 } ]
    [ { Schedule.partition = pid 0; offset = 0; duration = 10 };
      { Schedule.partition = pid 1; offset = 10; duration = 10 } ]

let s1 =
  Schedule.make ~id:(sid 1) ~name:"S1" ~mtf:20
    ~change_actions:[ (pid 0, Schedule.Warm_restart_partition) ]
    ~requirements:
      [ { Schedule.partition = pid 1; cycle = 20; duration = 10 };
        { Schedule.partition = pid 0; cycle = 20; duration = 10 } ]
    [ { Schedule.partition = pid 1; offset = 0; duration = 10 };
      { Schedule.partition = pid 0; offset = 10; duration = 10 } ]

let schedules = [ s0; s1 ]
let cs from to_ = Event.Context_switch { from; to_ }

module O = Air_faults.Oracle

let no_network = { Air_ipc.Port.ports = []; channels = [] }

let trace_of events =
  let trace = Air_sim.Trace.create ~codec:Event.codec () in
  List.iter (fun (t, ev) -> Air_sim.Trace.record trace t ev) events;
  trace

(* The oracle's replay of [events], each finding rendered whole. *)
let replay ?(network = no_network) ?(schedules = schedules) ?(outcomes = [])
    ~until events =
  List.map
    (Format.asprintf "%a" O.pp_finding)
    (O.replay
       (Air.System.config ~network ~partitions:[] ~schedules ())
       ~until ~outcomes (trace_of events))

let findings = Alcotest.(list string)

let checker_accepts_clean_trace () =
  let trace =
    [ (0, cs None (Some (pid 0)));
      (10, cs (Some (pid 0)) (Some (pid 1)));
      (20, cs (Some (pid 1)) (Some (pid 0)));
      (30, cs (Some (pid 0)) (Some (pid 1))) ]
  in
  check findings "no violations" [] (replay ~until:40 trace)

let checker_flags_out_of_window () =
  (* P1 grabs the processor at tick 5, in the middle of P0's window. *)
  let trace =
    [ (0, cs None (Some (pid 0))); (5, cs (Some (pid 0)) (Some (pid 1))) ]
  in
  check findings "the intruder, the tick and the owner"
    [ "[window-conformance] [5] P2 ran outside its window (scheduling \
       table grants P1)" ]
    (replay ~until:10 trace)

let checker_flags_mid_mtf_switch () =
  let trace =
    [ (0, cs None (Some (pid 0)));
      (10, cs (Some (pid 0)) (Some (pid 1)));
      (15, Event.Schedule_switch { from = sid 0; to_ = sid 1 });
      (15, cs (Some (pid 1)) (Some (pid 1))) ]
  in
  check findings "the switch and its offset into the MTF"
    [ "[mtf-boundary] [15] schedule switch χ1 → χ2 15 ticks into \
       the major time frame" ]
    (replay ~until:20 trace)

let change_action_trace ~with_action =
  [ (0, cs None (Some (pid 0)));
    (10, cs (Some (pid 0)) (Some (pid 1)));
    (20, Event.Schedule_switch { from = sid 0; to_ = sid 1 });
    (30, cs (Some (pid 1)) (Some (pid 0))) ]
  @ (if with_action then
       [ (30,
          Event.Change_action
            { partition = pid 0;
              action = Schedule.Warm_restart_partition }) ]
     else [])

let checker_flags_missing_change_action () =
  check findings "the first dispatch and its partition"
    [ "[change-action] [30] P1 dispatched without its armed schedule-change \
       action" ]
    (replay ~until:40 (change_action_trace ~with_action:false))

let checker_accepts_delivered_change_action () =
  check findings "no violations" []
    (replay ~until:40 (change_action_trace ~with_action:true))

let checker_flags_unexpected_change_action () =
  let trace =
    [ (0, cs None (Some (pid 0)));
      (5,
       Event.Change_action
         { partition = pid 0; action = Schedule.Warm_restart_partition }) ]
  in
  check findings "the stray action"
    [ "[change-action] [5] change action delivered to P1 with none armed" ]
    (replay ~until:10 trace)

let checker_matches_deadline_misses () =
  let violation =
    (3, Event.Deadline_violation { process = proc 0 0; deadline = 2 })
  in
  let hm =
    (3,
     Event.Hm_error
       { level = Error.Process_level;
         code = Error.Deadline_missed;
         partition = Some (pid 0);
         process = Some (proc 0 0);
         detail = "" })
  in
  let base = [ (0, cs None (Some (pid 0))) ] in
  check findings "the miss and its process"
    [ "[deadline-supervision] [3] deadline miss of τ1,1 never reached the \
       health monitor" ]
    (replay ~until:10 (base @ [ violation ]));
  check findings "HM event settles it" []
    (replay ~until:10 (base @ [ violation; hm ]))

(* A 1:1 queuing channel and a fan-out sampling channel for IPC checks. *)
let network =
  { Air_ipc.Port.ports =
      [ Air_ipc.Port.queuing_port ~name:"Q_SRC" ~partition:(pid 0)
          ~direction:Air_ipc.Port.Source ~depth:4 ~max_message_size:32;
        Air_ipc.Port.queuing_port ~name:"Q_DST" ~partition:(pid 1)
          ~direction:Air_ipc.Port.Destination ~depth:4 ~max_message_size:32;
        Air_ipc.Port.sampling_port ~name:"S_SRC" ~partition:(pid 0)
          ~direction:Air_ipc.Port.Source ~refresh:10 ~max_message_size:32;
        Air_ipc.Port.sampling_port ~name:"S_DST" ~partition:(pid 1)
          ~direction:Air_ipc.Port.Destination ~refresh:10 ~max_message_size:32
      ];
    channels =
      [ { Air_ipc.Port.source = "Q_SRC"; destinations = [ "Q_DST" ] };
        { Air_ipc.Port.source = "S_SRC"; destinations = [ "S_DST" ] } ]
  }

let receive_without_message t =
  Printf.sprintf
    "[ipc-conservation] [%d] queuing port Q_DST handed out a message never \
     delivered to it"
    t

let checker_flags_receive_without_message () =
  let trace = [ (4, Event.Port_receive { port = "Q_DST"; bytes = 8 }) ] in
  check findings "the receive and its port" [ receive_without_message 4 ]
    (replay ~network ~until:10 trace);
  (* A send through the channel's source balances the receive. *)
  let balanced =
    [ (2, Event.Port_send { port = "Q_SRC"; bytes = 8 });
      (4, Event.Port_receive { port = "Q_DST"; bytes = 8 }) ]
  in
  check findings "send-then-receive is clean" []
    (replay ~network ~until:10 balanced);
  (* An overflow at the same tick voids the delivery. *)
  let overflowed =
    [ (2, Event.Port_send { port = "Q_SRC"; bytes = 8 });
      (2, Event.Port_overflow { port = "Q_DST" });
      (4, Event.Port_receive { port = "Q_DST"; bytes = 8 }) ]
  in
  check findings "overflowed send does not count"
    [ receive_without_message 4 ]
    (replay ~network ~until:10 overflowed)

(* An injected duplicate adds a message to its queuing port, except into
   a full queue, where the router discards it without an event. *)
let checker_credits_duplicates () =
  let dup =
    Air_faults.Fault.Port_fault
      { port = "Q_DST"; fault = Air_faults.Fault.Msg_duplicate }
  in
  let outcome =
    { Air_faults.Engine.fault = dup;
      at = 5;
      applied = Air_faults.Engine.Applied;
      detected_at = None;
      latency = None;
      action = None;
      flows = [] }
  in
  let run ~sends =
    List.init sends (fun _ ->
        (2, Event.Port_send { port = "Q_SRC"; bytes = 8 }))
    @ [ (4, Event.Fault_injected { label = Air_faults.Fault.label dup }) ]
    @ List.init (sends + 1) (fun i ->
          (6 + i, Event.Port_receive { port = "Q_DST"; bytes = 8 }))
  in
  check findings "a duplicate into a queue with room is a message" []
    (replay ~network ~outcomes:[ outcome ] ~until:20 (run ~sends:1));
  check findings "a duplicate into a full queue credits nothing"
    [ receive_without_message 10 ]
    (replay ~network ~outcomes:[ outcome ] ~until:20 (run ~sends:4));
  check findings "without its outcome the duplicate is unexplained"
    [ receive_without_message 7 ]
    (replay ~network ~until:20 (run ~sends:1))

let checker_flags_sampling_read_before_write () =
  let trace = [ (3, Event.Port_receive { port = "S_DST"; bytes = 8 }) ] in
  check findings "the read and its port"
    [ "[ipc-conservation] [3] sampling port S_DST read before any write" ]
    (replay ~network ~until:10 trace);
  let written =
    [ (1, Event.Port_send { port = "S_SRC"; bytes = 8 });
      (3, Event.Port_receive { port = "S_DST"; bytes = 8 }) ]
  in
  check findings "write-then-read is clean" []
    (replay ~network ~until:10 written)

(* A bounded trace that dropped its head cannot be replayed from tick 0:
   one finding says so instead of a replay of the tail. *)
let checker_refuses_a_dropped_head () =
  let trace = Air_sim.Trace.create ~codec:Event.codec ~capacity:2 () in
  List.iter
    (fun (t, ev) -> Air_sim.Trace.record trace t ev)
    [ (0, cs None (Some (pid 0)));
      (10, cs (Some (pid 0)) (Some (pid 1)));
      (20, cs (Some (pid 1)) (Some (pid 0))) ];
  check findings "one finding for the dropped event"
    [ "[replay] bounded trace dropped 1 events; the replay needs the full \
       trace from tick 0" ]
    (List.map
       (Format.asprintf "%a" O.pp_finding)
       (O.replay
          (Air.System.config ~partitions:[] ~schedules ())
          ~until:30 ~outcomes:[] trace))

(* Window conformance, per tick: the reference the oracle's per-window
   scan must agree with. *)
let per_tick_conformance ~schedules ~until events =
  let table = Array.of_list schedules in
  let found = ref [] in
  let cur = ref 0 and last_switch = ref 0 and active = ref None in
  let seg = ref 0 in
  let close e =
    match !active with
    | None -> ()
    | Some p ->
      let rec scan t =
        if t < e then
          match Schedule.window_at table.(!cur) (t - !last_switch) with
          | Some w when Ident.Partition_id.equal w.Schedule.partition p ->
            scan (t + 1)
          | owner ->
            found :=
              Format.asprintf
                "[window-conformance] [%d] %a ran outside its window \
                 (scheduling table grants %s)"
                t Ident.Partition_id.pp p
                (match owner with
                | None -> "nobody"
                | Some w ->
                  Format.asprintf "%a" Ident.Partition_id.pp w.partition)
              :: !found
      in
      scan !seg
  in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Event.Context_switch { to_; _ } ->
        close t;
        active := to_;
        seg := t
      | Event.Schedule_switch { to_; _ } ->
        close t;
        cur := Ident.Schedule_id.index to_;
        last_switch := t;
        seg := t
      | _ -> ())
    events;
  close until;
  List.rev !found

(* Random tables over three partitions (gaps included), a random run of
   context switches, and schedule switches at MTF boundaries only. *)
let conformance_gen =
  let open QCheck.Gen in
  let schedule id st =
    let mtf = int_range 4 30 st in
    let rec windows cursor acc =
      let gap = int_range 0 3 st and duration = int_range 1 6 st in
      if cursor + gap + duration > mtf then List.rev acc
      else
        windows (cursor + gap + duration)
          ({ Schedule.partition = pid (int_range 0 2 st);
             offset = cursor + gap;
             duration }
          :: acc)
    in
    Schedule.make ~id:(sid id) ~name:(Printf.sprintf "S%d" id) ~mtf
      ~requirements:[] (windows 0 [])
  in
  fun st ->
    let schedules = [ schedule 0 st; schedule 1 st ] in
    let mtf i = (List.nth schedules i).Schedule.mtf in
    let now = ref 0 and cur = ref 0 and last_switch = ref 0 in
    let active = ref None in
    let events = ref [] in
    let emit ev = events := (!now, ev) :: !events in
    for _ = 1 to int_range 1 30 st do
      if int_range 0 4 st = 0 then begin
        let m = mtf !cur in
        let frames = (!now - !last_switch + m - 1) / m in
        now := !last_switch + (frames * m);
        let next = int_range 0 1 st in
        emit (Event.Schedule_switch { from = sid !cur; to_ = sid next });
        cur := next;
        last_switch := !now
      end
      else begin
        now := !now + int_range 0 15 st;
        let to_ =
          if int_range 0 3 st = 0 then None
          else Some (pid (int_range 0 2 st))
        in
        emit (Event.Context_switch { from = !active; to_ });
        active := to_
      end
    done;
    (schedules, List.rev !events, !now + int_range 0 40 st)

let print_conformance (schedules, events, until) =
  Format.asprintf "%a@.%a@.until %d"
    (Format.pp_print_list Schedule.pp)
    schedules
    (Format.pp_print_list (fun ppf (t, ev) ->
         Format.fprintf ppf "%d %a" t Event.pp ev))
    events until

let qcheck_window_scan =
  QCheck.Test.make ~count:300
    ~name:"check: per-window scan matches a per-tick scan"
    (QCheck.make ~print:print_conformance conformance_gen)
    (fun (schedules, events, until) ->
      let got = replay ~schedules ~until events in
      let want = per_tick_conformance ~schedules ~until events in
      if got <> want then
        QCheck.Test.fail_reportf "replay:@ %a@.per tick:@ %a"
          (Format.pp_print_list Format.pp_print_string)
          got
          (Format.pp_print_list Format.pp_print_string)
          want
      else true)

(* --- System integration ----------------------------------------------------- *)

let recorded_system () =
  let p name i =
    Partition.make ~id:(pid i) ~name
      [ Process.spec ~periodicity:(Process.Periodic 20) ~time_capacity:20
          ~wcet:4 ~base_priority:5 "work" ]
  in
  let script =
    { Script.body = [| Script.Compute 4; Script.Periodic_wait |];
      on_end = Script.Repeat }
  in
  let recorder = Span.create () in
  let sys =
    Air.System.create
      (Air.System.config ~recorder
         ~partitions:
           [ Air.System.partition_setup (p "A" 0) [ script ];
             Air.System.partition_setup (p "B" 1) [ script ] ]
         ~schedules:[ s0 ] ())
  in
  (sys, recorder)

let system_records_partition_windows () =
  let sys, recorder = recorded_system () in
  Air.System.run sys ~ticks:100;
  let windows =
    List.filter
      (fun s -> String.equal s.Span.name "partition-window")
      (Air.System.spans sys)
  in
  (* 100 ticks of a 20-tick MTF with two 10-tick windows: the dispatcher
     closes a window at every context switch; the last one stays open. *)
  check Alcotest.bool "several windows recorded" true
    (List.length windows >= 8);
  List.iter
    (fun w ->
      check Alcotest.int "window spans are 10 ticks" 10
        (w.Span.stop - w.Span.start))
    windows;
  check Alcotest.int "one still open" 1
    (List.length (Span.open_spans recorder ~now:(Air.System.now sys)))

let system_chrome_trace_is_valid () =
  let sys, _ = recorded_system () in
  Air.System.run sys ~ticks:100;
  let json = Air.System.chrome_trace sys in
  (match Json_lint.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid JSON: %s" e);
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " present") true (contains json needle))
    [ "partition-window"; "context-switch"; "\"ph\":\"M\"" ]

let system_trace_passes_checker () =
  let sys, _ = recorded_system () in
  Air.System.run sys ~ticks:200;
  check findings "a real run satisfies the invariants" []
    (List.map
       (Format.asprintf "%a" O.pp_finding)
       (O.replay (Air.System.configuration sys)
          ~until:(Air.System.now sys + 1)
          ~outcomes:[] (Air.System.trace sys)))

(* --- Packed event log ----------------------------------------------------- *)

module Trace = Air_sim.Trace

(* Small indices, plus indices at and past every plausible packed field
   width: they must round-trip through boxed storage, never truncated. *)
let index_gen =
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 20);
        ( 1,
          oneofl
            (max_int
            :: List.concat_map
                 (fun k -> List.map (( + ) (1 lsl k)) [ -2; -1; 0; 1 ])
                 [ 8; 15; 16; 17; 31; 32 ]) ) ])

let text_gen =
  QCheck.Gen.(
    oneof
      [ return "";
        string_size (int_range 0 12);
        oneofl [ "é"; "τ1,2 → χ2"; "lastSwitch=42"; "\000" ] ])

let event_gen =
  let open QCheck.Gen in
  let pid = map Ident.Partition_id.make index_gen in
  let pid_opt = oneof [ return None; map Option.some pid ] in
  let sid = map Ident.Schedule_id.make index_gen in
  let proc = map2 Ident.Process_id.make pid index_gen in
  let deadline =
    oneof [ int_range 0 5000; oneofl [ Air_sim.Time.infinity; 1 lsl 40 ] ]
  in
  let modes = Partition.[ Normal; Idle; Cold_start; Warm_start ] in
  let rec process_action depth =
    let flat =
      oneof
        [ oneofl
            Error.
              [ Ignore_error; Restart_process; Stop_process;
                Stop_partition_of_process ];
          map (fun m -> Error.Restart_partition_of_process m) (oneofl modes) ]
    in
    if depth = 0 then flat
    else
      frequency
        [ (2, flat);
          ( 1,
            map2
              (fun n a -> Error.Log_then (n, a))
              (int_range 0 5)
              (process_action (depth - 1)) ) ]
  in
  oneof
    [ map2 (fun from to_ -> Event.Context_switch { from; to_ }) pid_opt pid_opt;
      map2
        (fun by target -> Event.Schedule_switch_request { by; target })
        pid_opt sid;
      map2 (fun from to_ -> Event.Schedule_switch { from; to_ }) sid sid;
      map2
        (fun partition action -> Event.Change_action { partition; action })
        pid
        (oneofl
           Schedule.
             [ No_action; Warm_restart_partition; Cold_restart_partition ]);
      map2
        (fun partition mode -> Event.Partition_mode_change { partition; mode })
        pid (oneofl modes);
      map2
        (fun process state -> Event.Process_state_change { process; state })
        proc
        (oneofl Process.[ Dormant; Ready; Running; Waiting ]);
      map (fun process -> Event.Process_dispatched { process }) proc;
      map2
        (fun process deadline ->
          Event.Deadline_registered { process; deadline })
        proc deadline;
      map (fun process -> Event.Deadline_unregistered { process }) proc;
      map2
        (fun process deadline ->
          Event.Deadline_violation { process; deadline })
        proc deadline;
      (let* level =
         oneofl Error.[ Process_level; Partition_level; Module_level ]
       in
       let* code = oneofl Error.all_codes in
       let* partition = pid_opt in
       let* process = oneof [ return None; map Option.some proc ] in
       let+ detail = text_gen in
       Event.Hm_error { level; code; partition; process; detail });
      map2
        (fun process action -> Event.Hm_process_action { process; action })
        proc (process_action 3);
      map2
        (fun partition action ->
          Event.Hm_partition_action { partition; action })
        pid
        (oneofl
           Error.
             [ Partition_ignore; Partition_idle; Partition_warm_restart;
               Partition_cold_restart ]);
      map
        (fun action -> Event.Hm_module_action { action })
        (oneofl Error.[ Module_ignore; Module_shutdown; Module_reset ]);
      map2
        (fun port bytes -> Event.Port_send { port; bytes })
        text_gen index_gen;
      map2
        (fun port bytes -> Event.Port_receive { port; bytes })
        text_gen index_gen;
      map (fun port -> Event.Port_overflow { port }) text_gen;
      map3
        (fun partition address granted ->
          Event.Memory_access { partition; address; granted })
        pid index_gen bool;
      map2
        (fun partition line -> Event.Application_output { partition; line })
        pid text_gen;
      map (fun reason -> Event.Module_halt { reason }) text_gen;
      map (fun label -> Event.Fault_injected { label }) text_gen ]

(* Non-decreasing instants, repeats included, as the runtime stamps them. *)
let entries_gen =
  QCheck.Gen.(
    map
      (fun steps ->
        List.rev
          (snd
             (List.fold_left
                (fun (now, acc) (dt, ev) -> (now + dt, (now + dt, ev) :: acc))
                (0, []) steps)))
      (list_size (int_range 0 1600) (pair (int_range 0 3) event_gen)))

let print_entries entries =
  String.concat "\n"
    (List.map (fun (t, ev) -> Format.asprintf "%d %a" t Event.pp ev) entries)

let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l

(* The digest as documented, from the entries alone: each entry's time less
   the previous one's (the first's less 0), header and payload (0 when
   boxed) as base-128 varints, then its text, length first, or its boxed
   value's [Marshal] image; the stream is cut into pieces after the entry
   that brings a piece to 64 KB, and the pieces' digests are digested. *)
let reference_digest entries =
  let codec = Event.codec in
  let pieces = Buffer.create 64 and b = Buffer.create 4096 in
  let rec varint v =
    if v lsr 7 = 0 then Buffer.add_uint8 b v
    else begin
      Buffer.add_uint8 b (v land 127 lor 128);
      varint (v lsr 7)
    end
  in
  let last = ref 0 in
  List.iter
    (fun (time, ev) ->
      let h = codec.Trace.header ev in
      varint (time - !last);
      last := time;
      varint h;
      if h land Trace.boxed <> 0 then begin
        varint 0;
        Buffer.add_string b (Marshal.to_string ev [ Marshal.No_sharing ])
      end
      else begin
        varint (codec.Trace.wide ev);
        if h land Trace.text <> 0 then begin
          let text = codec.Trace.text ev in
          varint (String.length text);
          Buffer.add_string b text
        end
      end;
      if Buffer.length b >= 65536 then begin
        Buffer.add_string pieces (Digest.string (Buffer.contents b));
        Buffer.clear b
      end)
    entries;
  Buffer.add_string pieces (Digest.string (Buffer.contents b));
  Digest.string (Buffer.contents pieces)

(* One trace of [capacity] against the plain list of what it should keep. *)
let agrees_with_model entries capacity =
  let tr = Trace.create ~codec:Event.codec ?capacity () in
  List.iter (fun (time, ev) -> Trace.record tr time ev) entries;
  let n = List.length entries in
  let kept =
    match capacity with None -> entries | Some c -> drop (n - c) entries
  in
  let printed l =
    List.map (fun (t, ev) -> (t, Format.asprintf "%a" Event.pp ev)) l
  in
  let preds =
    [ Event.is_hm_error; (fun ev -> Event.kind ev mod 3 = 0); (fun _ -> false) ]
  in
  let last = match List.rev entries with (t, _) :: _ -> t | [] -> 0 in
  Trace.to_list tr = kept
  && printed (Trace.to_list tr) = printed kept
  && List.rev (Trace.fold (fun acc t ev -> (t, ev) :: acc) [] tr) = kept
  && Trace.length tr = List.length kept
  && Trace.total tr = n
  && List.for_all
       (fun p ->
         let hits = List.filter (fun (_, ev) -> p ev) kept in
         Trace.count p tr = List.length hits
         && Trace.find_first p tr = List.nth_opt hits 0
         && Trace.find_last p tr = List.nth_opt (List.rev hits) 0)
       preds
  && List.for_all
       (fun (from, until) ->
         Trace.between tr from until
         = List.filter (fun (t, _) -> from <= t && t < until) kept)
       [ (0, last + 1); (last / 3, last / 2); (last / 2, last / 2); (last, 0) ]
  && Trace.digest tr = reference_digest kept

let qcheck_packed_log =
  QCheck.Test.make ~count:40
    ~name:"packed log: every query agrees with a list model"
    (QCheck.make ~print:print_entries entries_gen)
    (fun entries ->
      List.for_all (agrees_with_model entries)
        [ None; Some 1; Some 255; Some 256; Some 257; Some 775 ])

(* A ring whose oldest kept entry sits mid-chunk, over a stream long enough
   to be digested in several pieces, with boxed entries in some chunks and
   a first entry whose time enters the digest as is. *)
let packed_log_mid_chunk_ring () =
  let entries =
    List.init 40_000 (fun i ->
        let line = Printf.sprintf "sample %d" (i mod 97) in
        ( (3 * i) + 7,
          match i mod 500 with
          | 0 -> Event.Fault_injected { label = line }
          | k when k mod 3 = 0 ->
            Event.Application_output { partition = pid (k mod 4); line }
          | k when k mod 3 = 1 ->
            Event.Deadline_registered
              { process = proc (k mod 4) (k mod 7); deadline = 1000 * i }
          | k ->
            Event.Context_switch { from = Some (pid (k mod 5)); to_ = None } ))
  in
  List.iter
    (fun capacity ->
      let tr = Trace.create ~codec:Event.codec ~capacity () in
      List.iter (fun (time, ev) -> Trace.record tr time ev) entries;
      let kept = drop (List.length entries - capacity) entries in
      let first_at = (List.length entries - capacity) mod 256 in
      let what =
        Printf.sprintf "capacity %d (first at index %d)" capacity first_at
      in
      check Alcotest.bool (what ^ ": oldest entry mid-chunk") true
        (first_at <> 0);
      check Alcotest.bool (what ^ ": entries") true (Trace.to_list tr = kept);
      check Alcotest.bool (what ^ ": first") true
        (Trace.find_first (fun _ -> true) tr = List.nth_opt kept 0);
      check Alcotest.string (what ^ ": digest")
        (Digest.to_hex (reference_digest kept))
        (Digest.to_hex (Trace.digest tr)))
    [ 300; 7_001; 39_999 ]

(* Recording stores ints and pointers only: once a ring's chunks and
   columns exist, ten thousand events (plain, text and boxed) leave the
   minor heap untouched ([Gc.minor_words] itself boxes a float). *)
let packed_log_record_is_allocation_free () =
  let events =
    [| Event.Process_dispatched { process = proc 1 2 };
       Event.Port_send { port = "FRAMES"; bytes = 64 };
       Event.Fault_injected { label = "wild-access" };
       Event.Deadline_registered { process = proc 0 0; deadline = 900 } |]
  in
  let tr = Trace.create ~codec:Event.codec ~capacity:1024 () in
  let feed n =
    for i = 0 to n - 1 do
      Trace.record tr i events.(i land 3)
    done
  in
  feed 2048;
  let calibration =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  feed 10_000;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words across 10000 records" calibration
    (after -. before)

let leo_path = "../examples/configs/leo_satellite.air"

(* The unbounded trace of a shipped module costs at most 2 words per kept
   event, buffers and chunk tables included (a queue of boxed tuples took
   10.8, three ints per entry in int-array chunks 4.2). *)
let packed_log_words_per_event () =
  let cfg =
    match Air_config.Loader.load_file leo_path with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  let sys = Air.System.create cfg in
  Air_exec.Engine.advance (Air_exec.Engine.create sys) ~ticks:200_000;
  let trace = Air.System.trace sys in
  let words = Obj.reachable_words (Obj.repr trace) in
  let per_event = float_of_int words /. float_of_int (Trace.length trace) in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per event (%d events)" per_event
       (Trace.length trace))
    true (per_event <= 2.)

(* A ring keeps nothing of what it evicted: a million fresh strings later
   it is no bigger than after two laps. *)
let packed_log_ring_forgets () =
  let tr = Trace.create ~codec:Event.codec ~capacity:4096 () in
  let feed from until =
    for i = from to until - 1 do
      let fresh = Printf.sprintf "lastSwitch=%d" i in
      Trace.record tr i
        (if i mod 7 = 0 then Event.Fault_injected { label = fresh }
         else Event.Application_output { partition = pid 0; line = fresh })
    done
  in
  feed 0 8192;
  let early = Obj.reachable_words (Obj.repr tr) in
  feed 8192 1_000_000;
  let late = Obj.reachable_words (Obj.repr tr) in
  check Alcotest.int "kept" 4096 (Trace.length tr);
  check Alcotest.bool
    (Printf.sprintf "%d words at the end, %d after 8192 events" late early)
    true
    (late <= 2 * early);
  (* The text and the boxed value a slot held die with the entry even when
     the entry taking the slot has neither. *)
  let small = Trace.create ~codec:Event.codec ~capacity:2 () in
  let gone = Weak.create 2 in
  let[@inline never] fill () =
    let line = String.make 3 'x' and label = String.make 3 'y' in
    Weak.set gone 0 (Some line);
    Weak.set gone 1 (Some label);
    Trace.record small 0 (Event.Application_output { partition = pid 0; line });
    Trace.record small 1 (Event.Fault_injected { label })
  in
  fill ();
  List.iter
    (fun t ->
      Trace.record small t (Event.Context_switch { from = None; to_ = None }))
    [ 2; 3 ];
  Gc.full_major ();
  check Alcotest.bool "evicted text collected" false (Weak.check gone 0);
  check Alcotest.bool "evicted boxed value collected" false (Weak.check gone 1);
  check Alcotest.int "the ring itself is alive" 2 (Trace.length small)

let suite =
  [ Alcotest.test_case "span: nesting" `Quick span_nesting;
    Alcotest.test_case "span: independent tracks" `Quick
      span_tracks_are_independent;
    Alcotest.test_case "span: mismatched end" `Quick span_mismatched_end;
    Alcotest.test_case "span: bounded retention" `Quick
      span_bounded_retention;
    Alcotest.test_case "span: open spans" `Quick span_open_spans;
    Alcotest.test_case "export: valid chrome JSON" `Quick
      export_is_valid_json;
    Alcotest.test_case "export: timestamp order" `Quick
      export_sorts_by_timestamp;
    Alcotest.test_case "check: clean trace" `Quick
      checker_accepts_clean_trace;
    Alcotest.test_case "check: out-of-window" `Quick
      checker_flags_out_of_window;
    Alcotest.test_case "check: mid-MTF switch" `Quick
      checker_flags_mid_mtf_switch;
    Alcotest.test_case "check: missing change action" `Quick
      checker_flags_missing_change_action;
    Alcotest.test_case "check: delivered change action" `Quick
      checker_accepts_delivered_change_action;
    Alcotest.test_case "check: unexpected change action" `Quick
      checker_flags_unexpected_change_action;
    Alcotest.test_case "check: deadline-miss matching" `Quick
      checker_matches_deadline_misses;
    Alcotest.test_case "check: queuing conservation" `Quick
      checker_flags_receive_without_message;
    Alcotest.test_case "check: sampling before write" `Quick
      checker_flags_sampling_read_before_write;
    Alcotest.test_case "system: partition windows" `Quick
      system_records_partition_windows;
    Alcotest.test_case "system: chrome trace valid" `Quick
      system_chrome_trace_is_valid;
    Alcotest.test_case "system: real run passes checker" `Quick
      system_trace_passes_checker;
    QCheck_alcotest.to_alcotest qcheck_packed_log;
    Alcotest.test_case "packed log: recording is allocation-free" `Quick
      packed_log_record_is_allocation_free;
    Alcotest.test_case "packed log: at most 2 words per event" `Quick
      packed_log_words_per_event;
    Alcotest.test_case "packed log: a ring forgets what it evicts" `Quick
      packed_log_ring_forgets;
    Alcotest.test_case "check: duplicate into a full queue" `Quick
      checker_credits_duplicates;
    Alcotest.test_case "check: a bounded trace is not replayed" `Quick
      checker_refuses_a_dropped_head;
    QCheck_alcotest.to_alcotest qcheck_window_scan;
    Alcotest.test_case "packed log: a ring kept from mid-chunk" `Quick
      packed_log_mid_chunk_ring ]
