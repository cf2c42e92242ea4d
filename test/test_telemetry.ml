(* Telemetry downlink tests: the log-bucketed quantile histogram, the
   per-MTF frame accumulator, temporal-health watchdogs (including the
   system-level mapping onto Health Monitor actions), the exports, and the
   configuration grammar. *)

open Air_model
open Air_pos
open Air_obs

let check = Alcotest.check
let pid = Ident.Partition_id.make
let sid = Ident.Schedule_id.make

(* --- Quantile histogram ---------------------------------------------------- *)

let quantile_exact_below_16 () =
  let h = Quantile.create () in
  for v = 0 to 15 do
    Quantile.record h v
  done;
  check Alcotest.int "count" 16 (Quantile.count h);
  check Alcotest.int "total" 120 (Quantile.total h);
  check Alcotest.int "min" 0 (Quantile.min_value h);
  check Alcotest.int "max" 15 (Quantile.max_value h);
  (* Below 16 every value has its own bucket, so quantiles are exact. *)
  check Alcotest.int "p50" 7 (Quantile.p50 h);
  check Alcotest.int "p99" 15 (Quantile.p99 h)

let quantile_relative_error_bounded () =
  let h = Quantile.create () in
  for v = 1 to 10_000 do
    Quantile.record h v
  done;
  let assert_close name expected actual =
    let err = abs (actual - expected) in
    if err * 100 > expected * 7 then
      Alcotest.failf "%s: %d not within 7%% of %d" name actual expected
  in
  assert_close "p50" 5_000 (Quantile.p50 h);
  assert_close "p90" 9_000 (Quantile.p90 h);
  assert_close "p99" 9_900 (Quantile.p99 h);
  (* The estimate never undershoots the true quantile: buckets report
     their inclusive upper bound. *)
  check Alcotest.bool "p50 >= true" true (Quantile.p50 h >= 5_000);
  check Alcotest.int "max exact" 10_000
    (Quantile.value_at h ~num:1 ~den:1)

let quantile_clamps () =
  let h = Quantile.create () in
  Quantile.record h (-7);
  check Alcotest.int "negative counts as 0" 0 (Quantile.min_value h);
  Quantile.record h max_int;
  check Alcotest.int "clamped to trackable range"
    ((1 lsl 30) - 1)
    (Quantile.max_value h);
  check Alcotest.int "p99 saturates" ((1 lsl 30) - 1) (Quantile.p99 h)

let quantile_merge () =
  let a = Quantile.create () and b = Quantile.create () in
  let union = Quantile.create () in
  for v = 1 to 500 do
    Quantile.record a v;
    Quantile.record union v
  done;
  for v = 501 to 1_000 do
    Quantile.record b v;
    Quantile.record union v
  done;
  Quantile.merge ~into:a b;
  check Alcotest.int "count adds" 1_000 (Quantile.count a);
  check Alcotest.int "total adds" (Quantile.total union) (Quantile.total a);
  check Alcotest.int "min of union" 1 (Quantile.min_value a);
  check Alcotest.int "max of union" 1_000 (Quantile.max_value a);
  (* Merging buckets is exactly the union of the recordings. *)
  List.iter
    (fun (num, den) ->
      check Alcotest.int
        (Printf.sprintf "q%d/%d equals union" num den)
        (Quantile.value_at union ~num ~den)
        (Quantile.value_at a ~num ~den))
    [ (1, 2); (9, 10); (99, 100); (1, 1) ];
  check Alcotest.int "b untouched" 500 (Quantile.count b)

let quantile_empty_and_clear () =
  let h = Quantile.create () in
  check Alcotest.int "empty p99" 0 (Quantile.p99 h);
  Quantile.record h 42;
  Quantile.clear h;
  check Alcotest.int "cleared count" 0 (Quantile.count h);
  check Alcotest.int "cleared p50" 0 (Quantile.p50 h);
  check Alcotest.int "cleared max" 0 (Quantile.max_value h)

let quantile_rejects_bad_rank () =
  let h = Quantile.create () in
  Quantile.record h 1;
  Alcotest.check_raises "den = 0"
    (Invalid_argument "Quantile.value_at: need 0 <= num <= den, den > 0")
    (fun () -> ignore (Quantile.value_at h ~num:1 ~den:0));
  Alcotest.check_raises "num > den"
    (Invalid_argument "Quantile.value_at: need 0 <= num <= den, den > 0")
    (fun () -> ignore (Quantile.value_at h ~num:3 ~den:2))

(* --- Frame accumulator ------------------------------------------------------ *)

let accumulate_one_frame () =
  let t = Telemetry.create ~partition_count:2 () in
  Telemetry.prime t ~schedule:0 ~allotted:[| 10; 8 |];
  for _ = 1 to 10 do
    Telemetry.on_tick t ~active:0
  done;
  for _ = 1 to 6 do
    Telemetry.on_tick t ~active:1
  done;
  for _ = 1 to 4 do
    Telemetry.on_tick t ~active:(-1)
  done;
  Telemetry.on_dispatch t ~partition:0 ~jitter:0;
  Telemetry.on_dispatch t ~partition:1 ~jitter:3;
  Telemetry.on_catch_up t ~partition:1 ~depth:7;
  Telemetry.on_deadline_miss t ~partition:0;
  Telemetry.on_hm_error t ~partition:(Some 0);
  Telemetry.on_hm_error t ~partition:None;
  Telemetry.on_ipc_delivery t ~latency:12;
  check Alcotest.int "ticks accumulated" 20 (Telemetry.ticks_accumulated t);
  let f = Telemetry.close_frame t ~now:20 ~next_schedule:1
      ~next_allotted:[| 4; 4 |]
  in
  check Alcotest.int "start" 0 f.Telemetry.f_start;
  check Alcotest.int "stop" 20 f.Telemetry.f_stop;
  check Alcotest.int "schedule" 0 f.Telemetry.f_schedule;
  check Alcotest.int "busy" 16 f.Telemetry.f_busy;
  check Alcotest.int "slack" 4 f.Telemetry.f_slack;
  check Alcotest.int "catch-up max" 7 f.Telemetry.f_catch_up_max;
  check Alcotest.int "misses" 1 f.Telemetry.f_deadline_misses;
  check Alcotest.int "hm errors (incl. module level)" 2
    f.Telemetry.f_hm_errors;
  check Alcotest.int "jitter count" 2 f.Telemetry.f_jitter_count;
  check Alcotest.int "jitter max" 3 f.Telemetry.f_jitter_max;
  check Alcotest.int "ipc count" 1 f.Telemetry.f_ipc_count;
  check Alcotest.int "ipc p99" 12 f.Telemetry.f_ipc_p99;
  (match f.Telemetry.f_partitions with
  | [| p0; p1 |] ->
    check Alcotest.int "p0 window" 10 p0.Telemetry.pf_window_ticks;
    check Alcotest.int "p0 allotted" 10 p0.Telemetry.pf_allotted;
    check Alcotest.int "p0 utilization" 1000
      (Telemetry.frame_utilization_permille p0);
    check Alcotest.int "p1 window" 6 p1.Telemetry.pf_window_ticks;
    check Alcotest.int "p1 utilization" 750
      (Telemetry.frame_utilization_permille p1);
    check Alcotest.int "p1 catch-up" 7 p1.Telemetry.pf_catch_up_max;
    check Alcotest.int "p0 misses" 1 p0.Telemetry.pf_deadline_misses;
    check Alcotest.int "p0 hm" 1 p0.Telemetry.pf_hm_errors
  | ps -> Alcotest.failf "expected 2 partition frames, got %d"
            (Array.length ps));
  (* The accumulator restarts cleanly under the next schedule. *)
  check Alcotest.int "reset" 0 (Telemetry.ticks_accumulated t);
  check Alcotest.int "next schedule primed" 1
    (Telemetry.current_schedule t);
  Telemetry.on_tick t ~active:0;
  let g = Telemetry.close_frame t ~now:24 ~next_schedule:1
      ~next_allotted:[| 4; 4 |]
  in
  check Alcotest.int "second frame index" 1 g.Telemetry.f_index;
  check Alcotest.int "second frame starts at first stop" 20
    g.Telemetry.f_start;
  check Alcotest.int "second frame fresh misses" 0
    g.Telemetry.f_deadline_misses

let retention_ring () =
  let t =
    Telemetry.create
      ~config:(Telemetry.config ~retention:3 ())
      ~partition_count:1 ()
  in
  Telemetry.prime t ~schedule:0 ~allotted:[| 10 |];
  for k = 1 to 5 do
    Telemetry.on_tick t ~active:0;
    ignore
      (Telemetry.close_frame t ~now:(k * 10) ~next_schedule:0
         ~next_allotted:[| 10 |])
  done;
  check Alcotest.int "retained" 3 (Telemetry.retained t);
  check Alcotest.int "total" 5 (Telemetry.total_frames t);
  check
    Alcotest.(list int)
    "keeps the most recent, oldest first" [ 2; 3; 4 ]
    (List.map (fun f -> f.Telemetry.f_index) (Telemetry.frames t))

let flush_partial_frame () =
  let t = Telemetry.create ~partition_count:1 () in
  Telemetry.prime t ~schedule:0 ~allotted:[| 10 |];
  check Alcotest.bool "nothing to flush" true
    (Telemetry.flush t ~now:0 = None);
  Telemetry.on_tick t ~active:0;
  Telemetry.on_tick t ~active:(-1);
  (match Telemetry.flush t ~now:2 with
  | None -> Alcotest.fail "expected a partial frame"
  | Some f ->
    check Alcotest.int "partial stop" 2 f.Telemetry.f_stop;
    check Alcotest.int "partial busy" 1 f.Telemetry.f_busy);
  check Alcotest.bool "flush drains" true (Telemetry.flush t ~now:2 = None)

(* --- Watchdog evaluation ---------------------------------------------------- *)

let frame_with t ~ticks =
  Telemetry.prime t ~schedule:0 ~allotted:[| ticks |];
  for _ = 1 to ticks do
    Telemetry.on_tick t ~active:0
  done

let watchdog_breaches () =
  let t = Telemetry.create ~partition_count:2 () in
  Telemetry.prime t ~schedule:0 ~allotted:[| 10; 10 |];
  for _ = 1 to 20 do
    Telemetry.on_tick t ~active:0
  done;
  for _ = 1 to 100 do
    Telemetry.on_dispatch t ~partition:0 ~jitter:9
  done;
  Telemetry.on_catch_up t ~partition:1 ~depth:40;
  Telemetry.on_deadline_miss t ~partition:1;
  let f =
    Telemetry.close_frame t ~now:20 ~next_schedule:0
      ~next_allotted:[| 10; 10 |]
  in
  let w =
    Telemetry.watchdog ~min_slack:5 ~max_jitter_p99:4 ~max_catch_up:30
      ~max_deadline_misses:0 ()
  in
  (match Telemetry.breaches w f with
  | [ Telemetry.Jitter_p99_above { p99; max_jitter_p99 = 4 };
      Telemetry.Slack_below { slack = 0; min_slack = 5 };
      Telemetry.Deadline_misses_above
        { partition = 1; misses = 1; max_deadline_misses = 0 };
      Telemetry.Catch_up_above
        { partition = 1; depth = 40; max_catch_up = 30 } ] ->
    check Alcotest.bool "p99 above threshold" true (p99 > 4)
  | bs ->
    Alcotest.failf "unexpected breach set (%d): %a" (List.length bs)
      (Format.pp_print_list Telemetry.pp_breach)
      bs);
  (* Module-level breaches carry no partition; per-partition ones do. *)
  check
    Alcotest.(list (option int))
    "breach attribution"
    [ None; None; Some 1; Some 1 ]
    (List.map Telemetry.breach_partition (Telemetry.breaches w f));
  check Alcotest.int "trivial watchdog never breaches" 0
    (List.length (Telemetry.breaches Telemetry.no_watchdog f))

let watchdog_jitter_skipped_without_dispatches () =
  let t = Telemetry.create ~partition_count:1 () in
  frame_with t ~ticks:10;
  let f =
    Telemetry.close_frame t ~now:10 ~next_schedule:0 ~next_allotted:[| 10 |]
  in
  let w = Telemetry.watchdog ~max_jitter_p99:0 () in
  check Alcotest.int "no dispatches, no jitter breach" 0
    (List.length (Telemetry.breaches w f))

let watchdog_per_schedule_lookup () =
  let strict = Telemetry.watchdog ~min_slack:100 () in
  let t =
    Telemetry.create
      ~config:(Telemetry.config ~schedule_watchdogs:[ (1, strict) ] ())
      ~partition_count:1 ()
  in
  check Alcotest.bool "schedule 0 uses the default" true
    (Telemetry.watchdog_is_trivial (Telemetry.watchdog_for t ~schedule:0));
  check Alcotest.bool "schedule 1 overridden" true
    (Telemetry.watchdog_for t ~schedule:1 = strict)

(* --- System integration ----------------------------------------------------- *)

let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

let s0 =
  Schedule.make ~id:(sid 0) ~name:"S0" ~mtf:20
    ~requirements:[ q (pid 0) 20 10; q (pid 1) 20 10 ]
    [ w (pid 0) 0 10; w (pid 1) 10 10 ]

(* A sparse alternative: one 10-tick window in a 40-tick MTF leaves 30
   ticks of slack every frame. *)
let s1 =
  Schedule.make ~id:(sid 1) ~name:"S1" ~mtf:40
    ~requirements:[ q (pid 0) 40 10 ]
    [ w (pid 0) 0 10 ]

let telemetry_system ?hm_tables ?telemetry () =
  let p name i =
    Partition.make ~id:(pid i) ~name
      [ Process.spec ~periodicity:(Process.Periodic 20) ~time_capacity:20
          ~wcet:4 ~base_priority:5 "work" ]
  in
  let script =
    { Script.body = [| Script.Compute 4; Script.Periodic_wait |];
      on_end = Script.Repeat }
  in
  let telemetry =
    match telemetry with
    | Some c -> c
    | None -> Telemetry.default_config
  in
  Air.System.create
    (Air.System.config ?hm_tables ~telemetry
       ~partitions:
         [ Air.System.partition_setup (p "A" 0) [ script ];
           Air.System.partition_setup (p "B" 1) [ script ] ]
       ~schedules:[ s0; s1 ] ())

let one_frame_per_mtf () =
  let s = telemetry_system () in
  Air.System.run_mtfs s 4;
  (* The boundary tick belongs to the next frame, so after exactly four
     MTFs three frames are closed and the fourth is still accumulating. *)
  let closed = Air.System.telemetry_frames s in
  check Alcotest.int "closed frames" 3 (List.length closed);
  List.iteri
    (fun k f ->
      check Alcotest.int "start" (k * 20) f.Telemetry.f_start;
      check Alcotest.int "stop" ((k + 1) * 20) f.Telemetry.f_stop;
      check Alcotest.int "schedule" 0 f.Telemetry.f_schedule;
      check Alcotest.int "full occupation" 20 f.Telemetry.f_busy;
      check Alcotest.int "no slack" 0 f.Telemetry.f_slack)
    closed;
  (match Air.System.telemetry_flush s with
  | None -> Alcotest.fail "expected a flushed tail frame"
  | Some f ->
    check Alcotest.int "tail start" 60 f.Telemetry.f_start;
    check Alcotest.int "tail stop" 80 f.Telemetry.f_stop);
  check Alcotest.int "one frame per elapsed MTF" 4
    (List.length (Air.System.telemetry_frames s));
  check Alcotest.bool "flush drains" true
    (Air.System.telemetry_flush s = None)

let schedule_switch_starts_fresh_frame () =
  let strict = Telemetry.watchdog ~min_slack:100 () in
  let s =
    telemetry_system
      ~telemetry:(Telemetry.config ~schedule_watchdogs:[ (1, strict) ] ())
      ()
  in
  Air.System.run_mtfs s 1;
  Result.get_ok (Air.System.request_schedule s (sid 1));
  Air.System.run_mtfs s 4;
  let frames = Air.System.telemetry_frames s in
  (* One MTF under S0, then the switch; each [run_mtfs] iteration advances
     exactly one whole frame of the schedule actually running (the switch
     changes the MTF at the boundary), and a frame closes only when its
     boundary tick executes — so three full S1 frames are closed here and
     a fourth is still accumulating. *)
  (match frames with
  | first :: rest ->
    check Alcotest.int "first frame under S0" 0 first.Telemetry.f_schedule;
    check Alcotest.int "S0 frame length" 20
      (first.Telemetry.f_stop - first.Telemetry.f_start);
    check Alcotest.int "frames after the switch" 3 (List.length rest);
    List.iter
      (fun f ->
        check Alcotest.int "runs under S1" 1 f.Telemetry.f_schedule;
        check Alcotest.int "S1 frame length" 40
          (f.Telemetry.f_stop - f.Telemetry.f_start);
        check Alcotest.int "S1 slack" 30 f.Telemetry.f_slack)
      rest
  | [] -> Alcotest.fail "expected frames");
  (* The watchdog is re-read per frame: S0's frame is judged by the
     (trivial) default, S1's frames by the strict override — three closed
     S1 frames, three module-level temporal-degradation errors. *)
  check Alcotest.int "breaches only under S1" 3
    (Air.Hm.code_count (Air.System.hm s) Error.Temporal_degradation)

let watchdog_raises_hm_once_per_frame () =
  (* Under S0 each partition is preempted for 10 ticks every MTF, so the
     PAL catch-up depth reaches 10 on every dispatch after the gap; slack
     is 0 on every frame. Both thresholds breach on every closed frame. *)
  let hm_tables =
    { Air.Hm.default_tables with
      Air.Hm.partition_actions =
        [ (pid 0, Error.Temporal_degradation, Error.Partition_warm_restart) ]
    }
  in
  let telemetry =
    Telemetry.config
      ~default_watchdog:
        (Telemetry.watchdog ~min_slack:1 ~max_catch_up:5 ())
      ()
  in
  let s = telemetry_system ~hm_tables ~telemetry () in
  Air.System.run_mtfs s 4;
  check Alcotest.int "three frames closed" 3
    (List.length (Air.System.telemetry_frames s));
  let count partition =
    Air_sim.Trace.count
      (fun ev ->
        match ev with
        | Air_model.Event.Hm_error
            { partition = Some p; code = Error.Temporal_degradation; _ } ->
          Ident.Partition_id.equal p partition
        | _ -> false)
      (Air.System.trace s)
  in
  let module_errors =
    Air_sim.Trace.count
      (fun ev ->
        match ev with
        | Air_model.Event.Hm_error
            { level = Error.Module_level;
              code = Error.Temporal_degradation; _ } ->
          true
        | _ -> false)
      (Air.System.trace s)
  in
  (* Exactly once per offending frame at each level: the slack breach is
     one module error per frame. A partition's catch-up announcement lands
     on the dispatch that ends the preemption gap — the boundary tick,
     which belongs to the next frame — so P0 (first window, no gap before
     its first dispatch) offends in the 2nd and 3rd closed frames only,
     while P1's initial 10-tick gap makes it offend in all three. *)
  check Alcotest.int "module level, once per frame" 3 module_errors;
  check Alcotest.int "partition 0, once per offending frame" 2
    (count (pid 0));
  check Alcotest.int "partition 1, once per offending frame" 3
    (count (pid 1));
  (* [code_count] sums every level's occurrences. *)
  check Alcotest.int "no spurious extra errors" 8
    (Air.Hm.code_count (Air.System.hm s) Error.Temporal_degradation);
  (* The configured recovery action actually ran, once per error. *)
  let restarts =
    Air_sim.Trace.count
      (fun ev ->
        match ev with
        | Air_model.Event.Hm_partition_action
            { partition; action = Error.Partition_warm_restart } ->
          Ident.Partition_id.equal partition (pid 0)
        | _ -> false)
      (Air.System.trace s)
  in
  check Alcotest.int "warm restart fired once per error" 2 restarts

let no_watchdog_no_hm_errors () =
  let s = telemetry_system () in
  Air.System.run_mtfs s 4;
  check Alcotest.int "trivial watchdogs stay silent" 0
    (Air.Hm.code_count (Air.System.hm s) Error.Temporal_degradation)

(* --- Exports ----------------------------------------------------------------- *)

let exported_frames () =
  let s = telemetry_system () in
  Air.System.run_mtfs s 4;
  ignore (Air.System.telemetry_flush s);
  Air.System.telemetry_frames s

let json_export_is_valid () =
  let frames = exported_frames () in
  let json = Telemetry.to_json frames in
  (match Json_lint.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid JSON: %s" e);
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " present") true
        (Astring_contains.contains json needle))
    [ Telemetry.schema; "\"frames\":"; "\"utilization_permille\"";
      "\"ipc\":" ];
  check Alcotest.bool "empty export still valid" true
    (Json_lint.is_valid (Telemetry.to_json []))

let csv_export_shape () =
  let frames = exported_frames () in
  let csv = Telemetry.to_csv frames in
  let lines =
    List.filter
      (fun l -> String.length l > 0)
      (String.split_on_char '\n' csv)
  in
  let columns line = List.length (String.split_on_char ',' line) in
  (match lines with
  | header :: rows ->
    check Alcotest.string "header" Telemetry.csv_header header;
    check Alcotest.int "one row per frame x partition"
      (List.length frames * 2)
      (List.length rows);
    List.iter
      (fun row ->
        check Alcotest.int "column count" (columns header) (columns row))
      rows
  | [] -> Alcotest.fail "empty CSV")

(* --- Configuration grammar ---------------------------------------------------- *)

let telemetry_doc =
  {|(air-system
  (partitions
    (partition (name CTRL)
      (processes (process (name loop) (script (compute 5) (periodic-wait))))))
  (schedules
    (schedule (name day) (mtf 20)
      (requirements (req (partition CTRL) (cycle 20) (duration 10)))
      (windows (window (partition CTRL) (offset 0) (duration 10))))
    (schedule (name night) (mtf 20)
      (requirements (req (partition CTRL) (cycle 20) (duration 5)))
      (windows (window (partition CTRL) (offset 0) (duration 5)))))
  (telemetry
    (retention 8)
    (watchdogs
      (watchdog (min-slack 2) (max-deadline-misses 0))
      (watchdog (schedule night) (max-catch-up 50)))))
|}

let config_decodes_telemetry () =
  match Air_config.Loader.load telemetry_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    (match cfg.Air.System.telemetry with
    | None -> Alcotest.fail "telemetry section lost"
    | Some c ->
      check Alcotest.(option int) "retention" (Some 8)
        c.Telemetry.retention;
      check Alcotest.(option int) "default min-slack" (Some 2)
        c.Telemetry.default_watchdog.Telemetry.min_slack;
      check Alcotest.(option int) "default miss threshold" (Some 0)
        c.Telemetry.default_watchdog.Telemetry.max_deadline_misses;
      (match c.Telemetry.schedule_watchdogs with
      | [ (1, wd) ] ->
        check Alcotest.(option int) "night catch-up" (Some 50)
          wd.Telemetry.max_catch_up
      | l -> Alcotest.failf "expected one override, got %d" (List.length l)))

let config_round_trips_telemetry () =
  match Air_config.Loader.load telemetry_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg -> (
    let doc = Air_config.Encode.to_string cfg in
    match Air_config.Loader.load doc with
    | Error e -> Alcotest.failf "re-load failed: %s\n%s" e doc
    | Ok cfg' ->
      check Alcotest.bool "telemetry config survives" true
        (cfg.Air.System.telemetry = cfg'.Air.System.telemetry))

let config_rejects_bad_telemetry () =
  (* The fixture's telemetry section is its last form; swap it out. *)
  let with_section section =
    let needle = "(telemetry" in
    let rec find i =
      if i + String.length needle > String.length telemetry_doc then
        Alcotest.fail "no telemetry section in fixture"
      else if String.sub telemetry_doc i (String.length needle) = needle
      then i
      else find (i + 1)
    in
    String.sub telemetry_doc 0 (find 0) ^ section ^ ")\n"
  in
  List.iter
    (fun (name, section) ->
      check Alcotest.bool name true
        (Result.is_error (Air_config.Loader.load (with_section section))))
    [ ("retention must be positive", "(telemetry (retention 0))");
      ( "unknown schedule rejected",
        "(telemetry (watchdogs (watchdog (schedule dusk) (min-slack 1))))"
      );
      ( "duplicate default rejected",
        "(telemetry (watchdogs (watchdog (min-slack 1)) (watchdog \
         (min-slack 2))))" );
      ( "duplicate schedule rejected",
        "(telemetry (watchdogs (watchdog (schedule day) (min-slack 1)) \
         (watchdog (schedule day) (min-slack 2))))" );
      ("unknown field rejected", "(telemetry (cadence 3))") ]

let suite =
  [ Alcotest.test_case "quantile: exact below 16" `Quick
      quantile_exact_below_16;
    Alcotest.test_case "quantile: bounded relative error" `Quick
      quantile_relative_error_bounded;
    Alcotest.test_case "quantile: clamping" `Quick quantile_clamps;
    Alcotest.test_case "quantile: merge" `Quick quantile_merge;
    Alcotest.test_case "quantile: empty and clear" `Quick
      quantile_empty_and_clear;
    Alcotest.test_case "quantile: bad rank rejected" `Quick
      quantile_rejects_bad_rank;
    Alcotest.test_case "frame: accumulate and close" `Quick
      accumulate_one_frame;
    Alcotest.test_case "frame: bounded retention" `Quick retention_ring;
    Alcotest.test_case "frame: flush partial" `Quick flush_partial_frame;
    Alcotest.test_case "watchdog: breach set" `Quick watchdog_breaches;
    Alcotest.test_case "watchdog: jitter needs dispatches" `Quick
      watchdog_jitter_skipped_without_dispatches;
    Alcotest.test_case "watchdog: per-schedule lookup" `Quick
      watchdog_per_schedule_lookup;
    Alcotest.test_case "system: one frame per MTF" `Quick one_frame_per_mtf;
    Alcotest.test_case "system: switch starts fresh frame" `Quick
      schedule_switch_starts_fresh_frame;
    Alcotest.test_case "system: HM raised once per frame" `Quick
      watchdog_raises_hm_once_per_frame;
    Alcotest.test_case "system: trivial watchdogs silent" `Quick
      no_watchdog_no_hm_errors;
    Alcotest.test_case "export: JSON is valid" `Quick json_export_is_valid;
    Alcotest.test_case "export: CSV shape" `Quick csv_export_shape;
    Alcotest.test_case "config: telemetry decodes" `Quick
      config_decodes_telemetry;
    Alcotest.test_case "config: telemetry round-trips" `Quick
      config_round_trips_telemetry;
    Alcotest.test_case "config: bad telemetry rejected" `Quick
      config_rejects_bad_telemetry ]
