(* Tests for the observability layer: metrics registry semantics, report
   rendering, and the end-to-end System integration. *)

open Air_model
open Air_pos
open Air_obs

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* --- Metrics registry ----------------------------------------------------- *)

let counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "x.count" in
  check Alcotest.int "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "accumulates" 5 (Metrics.value c);
  Metrics.add c (-3);
  Metrics.add c 0;
  check Alcotest.int "monotonic: non-positive adds ignored" 5
    (Metrics.value c);
  (* Get-or-create: the same name yields the same instrument. *)
  let c' = Metrics.counter reg "x.count" in
  Metrics.incr c';
  check Alcotest.int "shared by name" 6 (Metrics.value c)

(* A gauge is a view: its level is read from its source whenever the
   registry is read, never stored. *)
let gauge_basics () =
  let reg = Metrics.create () in
  let level = ref 7 in
  Metrics.gauge_view reg "x.level" (fun () -> !level);
  let read () =
    match Metrics.find reg "x.level" with
    | Some (Metrics.Gauge_value n) -> n
    | Some _ | None -> Alcotest.fail "expected a gauge"
  in
  check Alcotest.int "reads its source" 7 (read ());
  decr level;
  check Alcotest.int "tracks level" 6 (read ());
  check Alcotest.bool "snapshot reads it too" true
    (List.mem ("x.level", Metrics.Gauge_value 6) (Metrics.snapshot reg));
  Alcotest.check_raises "one source per view"
    (Invalid_argument "Metrics.gauge_view: \"x.level\" already registered")
    (fun () -> Metrics.gauge_view reg "x.level" (fun () -> 0))

let histogram_basics () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "x.lat" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 100; 5000 ];
  match Metrics.find reg "x.lat" with
  | Some (Metrics.Histogram_value v) ->
    check Alcotest.int "n" 5 v.Metrics.view_observations;
    check Alcotest.int "total" 5104 v.Metrics.view_total;
    check Alcotest.int "peak" 5000 v.Metrics.view_peak;
    check Alcotest.int "bucket sum covers all observations" 5
      (Array.fold_left ( + ) 0 v.Metrics.view_buckets)
  | _ -> Alcotest.fail "expected histogram snapshot"

let histogram_view_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "x.lat" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 100; 5000 ];
  match Metrics.find reg "x.lat" with
  | Some (Metrics.Histogram_value v) ->
    (* Rank 3 of 5 lands in the (2,4] bucket: the estimate is the bucket's
       inclusive upper bound. *)
    check Alcotest.int "p50" 4 (Metrics.view_quantile v ~num:1 ~den:2);
    (* Ranks in the +inf overflow bucket answer with the exact peak. *)
    check Alcotest.int "p99" 5000 (Metrics.view_quantile v ~num:99 ~den:100);
    check Alcotest.int "q1 is the peak" 5000
      (Metrics.view_quantile v ~num:1 ~den:1);
    Alcotest.check_raises "den = 0"
      (Invalid_argument "Metrics.view_quantile: need 0 <= num <= den, den > 0")
      (fun () -> ignore (Metrics.view_quantile v ~num:1 ~den:0))
  | _ -> Alcotest.fail "expected histogram snapshot"

let empty_view_quantile_is_zero () =
  let reg = Metrics.create () in
  ignore (Metrics.histogram reg "x.lat");
  match Metrics.find reg "x.lat" with
  | Some (Metrics.Histogram_value v) ->
    check Alcotest.int "empty" 0 (Metrics.view_quantile v ~num:1 ~den:2)
  | _ -> Alcotest.fail "expected histogram snapshot"

let kind_mismatch_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.histogram reg "x");
  Alcotest.check_raises "counter over histogram"
    (Invalid_argument
       "Metrics.counter: \"x\" already registered as another kind")
    (fun () -> ignore (Metrics.counter reg "x"));
  Metrics.counter_view reg "v" (fun () -> 0);
  Alcotest.check_raises "counter over view"
    (Invalid_argument
       "Metrics.counter: \"v\" already registered as another kind")
    (fun () -> ignore (Metrics.counter reg "v"))

let snapshot_is_sorted () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "b");
  Metrics.gauge_view reg "a" (fun () -> 0);
  ignore (Metrics.counter reg "c");
  let names = List.map fst (Metrics.snapshot reg) in
  check Alcotest.(list string) "sorted by name" [ "a"; "b"; "c" ] names

(* --- Report rendering ------------------------------------------------------ *)

let report_renders_all_kinds () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "c");
  Metrics.gauge_view reg "g" (fun () -> 2);
  Metrics.observe (Metrics.histogram reg "h") 3;
  let snapshot = Metrics.snapshot reg in
  let events = [ ("tick", 4) ] in
  let text = Report.to_string ~events snapshot in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in text report") true
        (contains ~needle text))
    [ "c"; "g"; "h"; "tick"; "p50=3 p90=3 p99=3" ];
  let json = Report.to_json ~events snapshot in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in json") true (contains ~needle json))
    [ "\"c\""; "\"counter\""; "\"gauge\""; "\"histogram\""; "\"tick\":4";
      "\"p50\":3"; "\"p99\":3" ]

(* Control characters in event labels and metric names must not corrupt
   the JSON report (regression: a raw newline in a label used to pass
   through json_escape unescaped). *)
let json_escapes_control_chars () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "line\nbreak");
  let json =
    Report.to_json ~events:[ ("tab\there", 1) ] (Metrics.snapshot reg)
  in
  check Alcotest.bool "valid JSON" true (Json_lint.is_valid json);
  check Alcotest.bool "newline escaped" true (contains ~needle:"\\n" json);
  check Alcotest.bool "tab escaped" true (contains ~needle:"\\t" json);
  check Alcotest.bool "no raw newline" false (contains ~needle:"\n" json);
  check Alcotest.string "escape function itself" "a\\nb\\u0001c"
    (Report.json_escape "a\nb\x01c")

(* --- System integration ----------------------------------------------------- *)

let pid = Ident.Partition_id.make
let sid = Ident.Schedule_id.make

let small_system () =
  let p name i =
    Partition.make ~id:(pid i) ~name
      [ Process.spec ~periodicity:(Process.Periodic 20) ~time_capacity:20
          ~wcet:4 ~base_priority:5 "work" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf:20
      ~requirements:
        [ { Schedule.partition = pid 0; cycle = 20; duration = 10 };
          { Schedule.partition = pid 1; cycle = 20; duration = 10 } ]
      [ { Schedule.partition = pid 0; offset = 0; duration = 10 };
        { Schedule.partition = pid 1; offset = 10; duration = 10 } ]
  in
  let script =
    { Script.body = [| Script.Compute 4; Script.Periodic_wait |];
      on_end = Script.Repeat }
  in
  Air.System.create
    (Air.System.config
       ~partitions:
         [ Air.System.partition_setup (p "P0" 0) [ script ];
           Air.System.partition_setup (p "P1" 1) [ script ] ]
       ~schedules:[ schedule ] ())

let system_shares_one_registry () =
  let sys = small_system () in
  Air.System.run sys ~ticks:100;
  let snapshot = Air.System.metrics_snapshot sys in
  let counter_of name =
    match List.assoc_opt name snapshot with
    | Some (Metrics.Counter_value n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  check Alcotest.int "pmk.ticks counts every tick" 100
    (counter_of "pmk.ticks");
  check Alcotest.bool "context switches observed" true
    (counter_of "pmk.context_switches" > 0);
  (* The per-partition PAL gauges appear for both partitions. *)
  List.iter
    (fun name ->
      match List.assoc_opt name snapshot with
      | Some (Metrics.Gauge_value _) -> ()
      | _ -> Alcotest.failf "missing gauge %s" name)
    [ "pal.store_size.p0"; "pal.store_size.p1" ];
  (* TLB counters ride on the same registry. *)
  check Alcotest.bool "tlb present" true
    (List.mem_assoc "tlb.hits" snapshot);
  check Alcotest.bool "hm errors pre-registered" true
    (List.mem_assoc "hm.errors.process" snapshot)

let system_event_counts_mirror_trace () =
  let sys = small_system () in
  Air.System.run sys ~ticks:100;
  let counts = Air.System.event_counts sys in
  let count kind =
    Option.value ~default:0 (List.assoc_opt kind counts)
  in
  let trace_count p =
    List.length
      (List.filter (fun (_, ev) -> p ev) (Air_sim.Trace.to_list (Air.System.trace sys)))
  in
  check Alcotest.int "context-switch kind mirrors trace"
    (trace_count Air_model.Event.is_context_switch)
    (count "context-switch");
  check Alcotest.bool "report mentions scheduler metrics" true
    (contains ~needle:"pmk.ticks" (Air.System.metrics_report sys))

(* The exact artifact [air_run --metrics-json] writes: well-formed JSON
   carrying both the metric snapshot and the per-kind event counts. *)
let system_metrics_json_artifact () =
  let sys = small_system () in
  Air.System.run sys ~ticks:100;
  let json = Air.System.metrics_json sys in
  (match Json_lint.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid JSON: %s" e);
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " present") true (contains ~needle json))
    [ "\"pmk.ticks\""; "\"events\""; "\"context-switch\"" ]

let suite =
  [ Alcotest.test_case "metrics: counters" `Quick counter_basics;
    Alcotest.test_case "metrics: gauges" `Quick gauge_basics;
    Alcotest.test_case "metrics: histograms" `Quick histogram_basics;
    Alcotest.test_case "metrics: view quantiles" `Quick
      histogram_view_quantiles;
    Alcotest.test_case "metrics: empty view quantile" `Quick
      empty_view_quantile_is_zero;
    Alcotest.test_case "metrics: kind mismatch" `Quick kind_mismatch_rejected;
    Alcotest.test_case "metrics: snapshot order" `Quick snapshot_is_sorted;
    Alcotest.test_case "report: text, sexp, json" `Quick
      report_renders_all_kinds;
    Alcotest.test_case "report: control chars escaped" `Quick
      json_escapes_control_chars;
    Alcotest.test_case "system: one shared registry" `Quick
      system_shares_one_registry;
    Alcotest.test_case "system: event counts mirror trace" `Quick
      system_event_counts_mirror_trace;
    Alcotest.test_case "system: metrics-json artifact" `Quick
      system_metrics_json_artifact ]
