(* Fault-injection campaigns over the Sect. 6 prototype, driven through the
   lib/faults engine: the dependability claim, stress-tested. Random
   campaigns mix temporal faults (runaway starts/stops, restarts, schedule
   switch storms, clock jitter), spatial faults (wild accesses, bit flips)
   and communication faults (loss, duplication, corruption, delay, reorder
   on the interpartition channels); after every campaign the containment
   oracle must hold: disturbances only in the targeted partitions, every HM
   error answered by exactly the configured action, identical reports under
   the same seed. *)

open Air_sim
open Air_model
open Air
open Ident
module F = Air_faults.Fault
module C = Air_faults.Campaign
module E = Air_faults.Engine
module O = Air_faults.Oracle
module R = Air_faults.Report

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let make () = E.Module (Air_workload.Satellite.make ())

let runaway =
  F.Runaway_start
    { partition = 0; process = Air_workload.Satellite.faulty_process_name }

let tm_loss = F.Port_fault { port = "TM_IN"; fault = F.Msg_loss }
let sci_dup = F.Port_fault { port = "SCI_IN"; fault = F.Msg_duplicate }

(* --- Random campaigns ---------------------------------------------------- *)

let fault_gen =
  QCheck.Gen.(
    frequency
      [ (4, return runaway);
        ( 2,
          return
            (F.Process_stop
               { partition = 0;
                 process = Air_workload.Satellite.faulty_process_name }) );
        ( 1,
          return
            (F.Partition_restart
               { partition = 0; mode = Partition.Warm_start }) );
        ( 1,
          return
            (F.Partition_restart
               { partition = 0; mode = Partition.Cold_start }) );
        (1, return (F.Partition_restart { partition = 3; mode = Partition.Idle }));
        ( 2,
          map
            (fun b -> F.Schedule_request { schedule = (if b then 1 else 0) })
            bool );
        ( 2,
          map
            (fun ticks -> F.Clock_jitter { partition = 0; ticks })
            (int_range 1 60) );
        ( 2,
          return
            (F.Wild_access
               { partition = 0;
                 section = Air_spatial.Memory.Data;
                 offset = 32;
                 write = true }) );
        ( 2,
          map
            (fun bit ->
              F.Bit_flip
                { partition = 0;
                  section = Air_spatial.Memory.Data;
                  bit;
                  write = false })
            (int_range 0 29) );
        ( 2,
          oneofl
            [ tm_loss;
              sci_dup;
              F.Port_fault { port = "TM_IN"; fault = F.Msg_corrupt { byte = 0 } };
              F.Port_fault { port = "SCI_IN"; fault = F.Msg_delay { ticks = 40 } };
              F.Port_fault { port = "TM_IN"; fault = F.Msg_reorder };
              F.Port_fault { port = "ATT_IN"; fault = F.Msg_loss } ] ) ])

let spec_gen =
  QCheck.Gen.(
    map2
      (fun seed faults ->
        C.spec ~seed ~horizon:6500
          ~injections:(List.map (fun (fault, at) -> { C.at; fault }) faults)
          ())
      (int_range 0 10_000)
      (list_size (int_range 1 8) (pair fault_gen (int_range 1 6400))))

let print_spec spec =
  Format.asprintf "seed=%d %a" spec.C.seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (i : C.injection) ->
         Format.fprintf ppf "@%d %a" i.C.at F.pp i.C.fault))
    spec.C.injections

let containment_campaign =
  QCheck.Test.make ~name:"random campaigns never breach containment"
    ~count:25
    (QCheck.make ~print:print_spec spec_gen)
    (fun spec ->
      let verdict = O.check (E.execute ~make spec) in
      if not (O.passed verdict) then
        QCheck.Test.fail_reportf "findings:@ %a"
          (Format.pp_print_list O.pp_finding)
          verdict.O.findings
      else true)

let campaign_deterministic =
  QCheck.Test.make ~name:"campaigns are reproducible under their seed"
    ~count:5
    (QCheck.make ~print:print_spec spec_gen)
    (fun spec -> E.reproducible ~make spec)

(* --- Fixed scenarios ----------------------------------------------------- *)

let wild_access_detected () =
  (* Strict tables map memory violations to a partition warm restart; the
     wild access must be denied, detected the same instant, and answered by
     exactly that action. *)
  let make () =
    E.Module (Air_workload.Satellite.make ~hm_tables:Hm.strict_tables ())
  in
  let spec =
    C.spec ~name:"wild" ~seed:5 ~horizon:3000
      ~injections:
        [ { C.at = 500;
            fault =
              F.Wild_access
                { partition = 0;
                  section = Air_spatial.Memory.Data;
                  offset = 16;
                  write = true } } ]
      ()
  in
  let run = E.execute ~make spec in
  (match run.E.outcomes with
  | [ o ] ->
    check Alcotest.bool "applied" true (o.E.applied = E.Applied);
    check (Alcotest.option Alcotest.int) "zero latency" (Some 0) o.E.latency;
    check Alcotest.bool "warm restart answered" true
      (match o.E.action with
      | Some a -> Astring_contains.contains a "warm-restart"
      | None -> false)
  | outcomes ->
    Alcotest.failf "expected one outcome, got %d" (List.length outcomes));
  check Alcotest.bool "contained" true (O.passed (O.check run))

let clock_jitter_contained () =
  let spec =
    C.spec ~name:"jitter" ~seed:8 ~horizon:6500
      ~injections:
        [ { C.at = 700; fault = F.Clock_jitter { partition = 0; ticks = 50 } };
          { C.at = 2600; fault = F.Clock_jitter { partition = 0; ticks = 30 } } ]
      ()
  in
  let run = E.execute ~make spec in
  check Alcotest.bool "contained" true (O.passed (O.check run));
  (* Whatever the jitter does to P1, the other partitions' deadline record
     stays clean. *)
  List.iter
    (fun (_, proc, _) ->
      check Alcotest.bool "violations only on P1" true
        (Partition_id.equal (Process_id.partition proc)
           Air_workload.Satellite.p1))
    (System.violations (E.system run))

let comm_faults_contained () =
  (* Seeded per-MTF communication weather on every destination port. *)
  let spec =
    C.spec ~name:"comm" ~seed:17 ~horizon:13000
      ~rates:
        [ { C.per_mtf_permille = 600; template = tm_loss };
          { C.per_mtf_permille = 400; template = sci_dup };
          { C.per_mtf_permille = 300;
            template =
              F.Port_fault { port = "TM_IN"; fault = F.Msg_delay { ticks = 80 } }
          };
          { C.per_mtf_permille = 300;
            template = F.Port_fault { port = "ATT_IN"; fault = F.Msg_loss } } ]
      ()
  in
  let run = E.execute ~make spec in
  check Alcotest.bool "plan not empty" true (run.E.plan <> []);
  check Alcotest.bool "some fault found a message" true
    (List.exists (fun o -> o.E.applied = E.Applied) run.E.outcomes);
  check Alcotest.bool "contained" true (O.passed (O.check run))

let healthy_output_continues () =
  (* Even with the faulty process running the whole time, TTC keeps
     downlinking every MTF — the old ad-hoc assertion, now read off the
     campaign run. *)
  let spec =
    C.spec ~name:"runaway" ~seed:2 ~horizon:(8 * 1300)
      ~injections:[ { C.at = 100; fault = runaway } ]
      ()
  in
  let run = E.execute ~make spec in
  check Alcotest.bool "contained" true (O.passed (O.check run));
  let downlinks =
    Trace.count
      (function
        | Event.Application_output { line = "telemetry frame downlinked"; _ }
          ->
          true
        | _ -> false)
      (System.trace (E.system run))
  in
  check Alcotest.bool "TTC unaffected" true (downlinks >= 14)

(* --- Determinism and stream independence --------------------------------- *)

let report_byte_equal () =
  let spec =
    C.spec ~name:"repro" ~seed:23 ~horizon:6500
      ~injections:
        [ { C.at = 400;
            fault =
              F.Wild_access
                { partition = 0;
                  section = Air_spatial.Memory.Data;
                  offset = 8;
                  write = false } };
          { C.at = 900; fault = runaway } ]
      ~rates:[ { C.per_mtf_permille = 500; template = tm_loss } ]
      ()
  in
  let doc () =
    let run = E.execute ~make spec in
    R.document [ R.make ~reproducible:true run (O.check run) ]
  in
  let a = doc () and b = doc () in
  check Alcotest.string "byte-identical documents" a b;
  check Alcotest.bool "schema marker" true
    (Astring_contains.contains a "air-campaign/1")

let silent_stream_leaves_run_untouched () =
  (* Regression for Rng.split stream independence at the engine level: a
     fault stream that never fires must not perturb the baseline schedule
     trace in any observable way. *)
  let plain = C.spec ~name:"plain" ~seed:42 ~horizon:6500 () in
  let silenced =
    C.spec ~name:"silenced" ~seed:42 ~horizon:6500
      ~rates:[ { C.per_mtf_permille = 0; template = tm_loss } ]
      ()
  in
  let run_plain = E.execute ~make plain in
  let run_silenced = E.execute ~make silenced in
  check Alcotest.string "identical fingerprints" run_plain.E.fingerprint
    run_silenced.E.fingerprint;
  (* And the fault-free campaign is indistinguishable from a plain run of
     the module over the same horizon. *)
  let fresh = Air_workload.Satellite.make () in
  System.run fresh ~ticks:6500;
  Observed.systems ~what:"fault-free campaign vs plain run" fresh
    (E.system run_plain)

let rate_streams_independent () =
  (* A rate's draws are a pure function of (seed, rate position): appending
     another rate never changes the ticks of the ones before it. *)
  let r1 = { C.per_mtf_permille = 300; template = tm_loss } in
  let r2 = { C.per_mtf_permille = 700; template = sci_dup } in
  let ticks_of template plan =
    List.filter_map
      (fun (i : C.injection) ->
        if i.C.fault = template then Some i.C.at else None)
      plan
  in
  let alone = C.plan (C.spec ~seed:9 ~horizon:13000 ~rates:[ r1 ] ()) ~mtf:1300 in
  let joined =
    C.plan (C.spec ~seed:9 ~horizon:13000 ~rates:[ r1; r2 ] ()) ~mtf:1300
  in
  check
    (Alcotest.list Alcotest.int)
    "r1 unchanged by appending r2" (ticks_of r1.C.template alone)
    (ticks_of r1.C.template joined)

(* Two runs whose events differ only in time are distinguishable: a
   factory that hands the first execution a module computing 5 ticks
   before its log line and the second one computing 6 yields traces of
   equal length and equal event counts, so a fingerprint of counts alone
   would call the campaign reproducible. *)
let fingerprint_sees_event_times () =
  let calls = ref 0 in
  let make () =
    incr calls;
    (* [execute] builds a campaign target and a baseline: two calls. *)
    let work = if !calls <= 2 then 5 else 6 in
    let p0 = Ident.Partition_id.make 0 in
    let p =
      Partition.make ~id:p0 ~name:"P" [ Process.spec ~base_priority:1 "t" ]
    in
    let schedule =
      Schedule.make ~id:(Ident.Schedule_id.make 0) ~name:"S" ~mtf:50
        ~requirements:[ { Schedule.partition = p0; cycle = 50; duration = 50 } ]
        [ { Schedule.partition = p0; offset = 0; duration = 50 } ]
    in
    E.Module
      (System.create
         (System.config
            ~partitions:
              [ System.partition_setup p
                  [ Air_pos.Script.make ~on_end:Air_pos.Script.Stop
                      [ Air_pos.Script.Compute work; Air_pos.Script.Log "x" ]
                  ] ]
            ~schedules:[ schedule ] ()))
  in
  let spec = C.spec ~name:"timing" ~seed:1 ~horizon:100 () in
  check Alcotest.bool "runs differing only in event times" false
    (E.reproducible ~make spec)

(* Two runs that differ only in a metrics counter are distinguishable: the
   factory bumps [ipc.overflows] on the modules of the second execution,
   whose traces, modes and telemetry all match the first. *)
let fingerprint_sees_metrics () =
  let calls = ref 0 in
  let make () =
    incr calls;
    let s = Air_workload.Satellite.make () in
    (* [execute] builds a campaign target and a baseline: two calls. *)
    if !calls > 2 then
      Air_obs.Metrics.incr
        (Air_obs.Metrics.counter (System.metrics s) "ipc.overflows");
    E.Module s
  in
  let spec = C.spec ~name:"metrics" ~seed:1 ~horizon:100 () in
  check Alcotest.bool "runs differing only in a metric counter" false
    (E.reproducible ~make spec)

(* --- Negative: a misconfigured HM table is flagged ----------------------- *)

let misconfigured_hm_flagged () =
  (* Deliberate misconfiguration: both prototype schedules leave zero idle
     slack, yet a temporal-health watchdog demands one tick of slack per
     frame and escalates the (inevitable) Temporal_degradation to a module
     shutdown. A partition-scoped runaway cannot explain the module-level
     error or the halt — the oracle must refuse the verdict. *)
  let tables =
    { Hm.default_tables with
      Hm.module_actions = [ (Error.Temporal_degradation, Error.Module_shutdown) ]
    }
  in
  let make () =
    let cfg = Air_workload.Satellite.config ~hm_tables:tables () in
    let telemetry =
      Air_obs.Telemetry.config
        ~default_watchdog:(Air_obs.Telemetry.watchdog ~min_slack:1 ())
        ()
    in
    E.Module (System.create { cfg with System.telemetry = Some telemetry })
  in
  let spec =
    C.spec ~name:"negative" ~seed:3 ~horizon:6500
      ~injections:[ { C.at = 100; fault = runaway } ]
      ()
  in
  let verdict = O.check (E.execute ~make spec) in
  check Alcotest.bool "oracle refuses" false (O.passed verdict);
  check Alcotest.bool "hm-containment finding" true
    (List.exists (fun f -> f.O.check = "hm-containment") verdict.O.findings)

(* --- The replay inside the oracle ---------------------------------------- *)

(* comm-weather's duplicates into FRAMES_IN are messages no send
   delivered: the oracle credits them from their outcomes. With those
   outcomes taken out of the run, the first receive the sends cannot
   explain is an IPC-conservation finding. The path is relative to the
   test's build directory (declared as a dune dep). *)
let leo_path = "../examples/configs/leo_satellite.air"

let replay_credits_injected_duplicates () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  let spec =
    match Air_config.Loader.load_campaigns_file leo_path with
    | Ok specs -> List.find (fun s -> s.C.name = "comm-weather") specs
    | Error msg -> Alcotest.failf "campaigns %s: %s" leo_path msg
  in
  let run =
    E.execute ~turbo:true ~make:(fun () -> E.Module (System.create config)) spec
  in
  check Alcotest.bool "contained" true (O.passed (O.check run));
  let duplicate (o : E.outcome) =
    match o.E.fault with
    | F.Port_fault { fault = F.Msg_duplicate; _ } -> o.E.applied = E.Applied
    | _ -> false
  in
  check Alcotest.bool "duplicates applied" true
    (List.exists duplicate run.E.outcomes);
  let doctored =
    { run with
      E.outcomes = List.filter (fun o -> not (duplicate o)) run.E.outcomes }
  in
  check
    Alcotest.(option string)
    "first IPC finding" (Some "[15309] queuing port FRAMES_IN handed out a \
                               message never delivered to it")
    (List.find_map
       (fun f ->
         if f.O.check = "ipc-conservation" then Some f.O.detail else None)
       (O.check doctored).O.findings)

let suite =
  [ qcheck containment_campaign;
    qcheck campaign_deterministic;
    Alcotest.test_case "wild access detected with zero latency" `Quick
      wild_access_detected;
    Alcotest.test_case "clock jitter stays contained" `Quick
      clock_jitter_contained;
    Alcotest.test_case "communication faults stay contained" `Quick
      comm_faults_contained;
    Alcotest.test_case "healthy output continues under fault" `Quick
      healthy_output_continues;
    Alcotest.test_case "report JSON is byte-reproducible" `Quick
      report_byte_equal;
    Alcotest.test_case "silent fault stream leaves the run untouched" `Quick
      silent_stream_leaves_run_untouched;
    Alcotest.test_case "rate substreams are independent" `Quick
      rate_streams_independent;
    Alcotest.test_case "misconfigured HM table is flagged" `Quick
      misconfigured_hm_flagged;
    Alcotest.test_case "fingerprints see event times" `Quick
      fingerprint_sees_event_times;
    Alcotest.test_case "fingerprints see metrics" `Quick
      fingerprint_sees_metrics;
    Alcotest.test_case "the replay credits injected duplicates" `Quick
      replay_credits_injected_duplicates ]
