(* Observational equivalence of the skip-ahead executive (Air_exec.Engine):
   for any module the engine must be indistinguishable from per-tick
   execution — the same observation ([Observed], over [Air.Observe]: every
   state section, the trace, telemetry, flows, spans and metrics) —
   whether the workload is hand-written (the Sect. 6
   prototype), randomly generated (Taskgen + synthesized PSTs), sharded
   over multiple cores, or driven through a fault-injection campaign
   (identical fingerprints and air-campaign/1 reports). *)

open Air_sim
open Air_model
open Air_pos
module System = Air.System
module Engine = Air_exec.Engine
module C = Air_faults.Campaign
module E = Air_faults.Engine
module O = Air_faults.Oracle
module R = Air_faults.Report

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Ident.Partition_id.make
let sid = Ident.Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* --- Randomly generated modules ----------------------------------------- *)

(* A fresh module from a seeded Taskgen workload under a synthesized PST,
   with telemetry enabled so frame equality is exercised too. Returns
   [None] when synthesis fails for this seed (the property skips it). *)
let taskgen_system ?cores ?(utilization = 0.4) seed =
  let rng = Rng.create seed in
  let n_partitions = 2 + (seed mod 3) in
  let gen =
    Air_workload.Taskgen.generate rng ~n_partitions ~procs_per_partition:2
      ~utilization
  in
  match Air_analysis.Synthesis.synthesize gen.Air_workload.Taskgen.requirements with
  | Error _ -> None
  | Ok schedule ->
    let config =
      System.config
        ~partitions:
          (List.map
             (fun (p, scripts) -> System.partition_setup p scripts)
             gen.Air_workload.Taskgen.partitions)
        ~schedules:[ schedule ] ~telemetry:Air_obs.Telemetry.default_config
        ?cores ()
    in
    Some (System.create config, schedule.Schedule.mtf)

let skip_matches_per_tick_on_random_modules =
  QCheck.Test.make ~name:"skip-ahead is bit-identical on seeded random modules"
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      match (taskgen_system seed, taskgen_system seed) with
      | None, _ | _, None -> QCheck.assume_fail ()
      | Some (reference, mtf), Some (candidate, _) ->
        (* A few MTFs plus a ragged tail so runs end mid-frame too. *)
        let ticks = (3 * mtf) + (seed mod 997) in
        System.run reference ~ticks;
        let engine = Engine.create candidate in
        Engine.advance engine ~ticks;
        Observed.systems ~what:(Printf.sprintf "seed %d" seed) reference
          candidate;
        check Alcotest.int
          (Printf.sprintf "seed %d: simulated ticks" seed)
          ticks (Engine.simulated engine);
        true)

(* Both execution strategies — plain per-tick and the default adaptive
   mode — must be bit-identical, both on sparse modules (where skipping
   dominates and the adaptive estimate stays low) and on dense ones (where
   adaptive runs blind per-tick batches). This is the tentpole invariant:
   mode only changes speed, never observables. *)
let modes_agree ~name ~utilization =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      match
        (taskgen_system ~utilization seed, taskgen_system ~utilization seed)
      with
      | None, _ | _, None -> QCheck.assume_fail ()
      | Some (reference, mtf), Some (adaptive_sys, _) ->
        let ticks = (3 * mtf) + (seed mod 997) in
        let per_tick = Engine.create ~mode:Engine.Per_tick reference in
        Engine.advance per_tick ~ticks;
        let adaptive = Engine.create ~mode:Engine.Adaptive adaptive_sys in
        Engine.advance adaptive ~ticks;
        Observed.systems
          ~what:(Printf.sprintf "seed %d: adaptive vs per-tick" seed)
          reference adaptive_sys;
        check Alcotest.int
          (Printf.sprintf "seed %d: per-tick simulated" seed)
          ticks (Engine.simulated per_tick);
        check Alcotest.int
          (Printf.sprintf "seed %d: adaptive simulated" seed)
          ticks (Engine.simulated adaptive);
        true)

let modes_agree_sparse =
  modes_agree ~name:"per-tick = adaptive on sparse random modules"
    ~utilization:0.4

let modes_agree_dense =
  modes_agree ~name:"per-tick = adaptive on dense random modules"
    ~utilization:0.9

(* --- Dense workloads ----------------------------------------------------- *)

(* One partition owns the whole 50-tick MTF and runs a single process with
   [body] on repeat. *)
let dense_system ?causal ?hm_tables body () =
  let p =
    Partition.make ~id:(pid 0) ~name:"dense"
      [ Process.spec ~base_priority:1 "spin" ]
  in
  let script = { Script.body; on_end = Script.Repeat } in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf:50
      ~requirements:[ q (pid 0) 50 50 ]
      [ w (pid 0) 0 50 ]
  in
  System.create
    (System.config ?causal ?hm_tables
       ~partitions:[ System.partition_setup p [ script ] ]
       ~schedules:[ schedule ] ())

(* Ends a compute, and so runs the script on, every tick: nothing is ever
   skippable. *)
let every_tick_body = [| Script.Compute 1 |]

(* One compute that never ends: every tick but the MTF boundary is a pure
   compute tick. *)
let long_compute_body = [| Script.Compute 1_000_000_000 |]

(* The BENCH_5 regression: probing after every executed tick paid a
   [Clock.next_interesting] probe per tick on dense workloads. The
   adaptive default must pay none when no tick is quiescent — it runs
   blind batches and never consults the probe — while staying
   bit-identical to the per-tick reference. *)
let adaptive_never_probes_when_dense () =
  let reference = dense_system every_tick_body () in
  System.run reference ~ticks:10_000;
  let engine = Engine.create (dense_system every_tick_body ()) in
  check Alcotest.bool "create defaults to adaptive" true
    (Engine.mode engine = Engine.Adaptive);
  Engine.advance engine ~ticks:10_000;
  Observed.systems ~what:"dense module" reference (Engine.system engine);
  let stats = Engine.stats engine in
  check Alcotest.int "nothing skipped" 0 stats.Engine.skipped;
  check Alcotest.int "no probes paid" 0 stats.Engine.probes;
  check Alcotest.int "all ticks stepped" 10_000 stats.Engine.stepped

(* A heir inside one long compute is quiescent: only the MTF boundary
   tick (a preemption point) is stepped, the 49 compute ticks after it
   are one skip, and the run stays bit-identical to per-tick. *)
let long_compute_steps_once_per_mtf () =
  let reference = dense_system long_compute_body () in
  System.run reference ~ticks:10_000;
  let engine = Engine.create (dense_system long_compute_body ()) in
  Engine.advance engine ~ticks:10_000;
  Observed.systems ~what:"long compute" reference (Engine.system engine);
  let stats = Engine.stats engine in
  check Alcotest.int "one stepped tick per MTF" (10_000 / 50)
    stats.Engine.stepped;
  check Alcotest.int "the rest skipped" 9_800 stats.Engine.skipped

(* The probe report ([Engine.next_proved]): set when an advance ends on a
   probe's skip, to the tick a fresh probe would name; cleared by a
   stepped tick and at the start of every advance, so a halted module
   reports nothing. On the long compute only each MTF boundary (every
   50 ticks) is interesting. *)
let probe_report () =
  let sys =
    dense_system ~hm_tables:Air.Hm.strict_tables long_compute_body ()
  in
  let engine = Engine.create sys in
  (* Tick 0 is stepped, then the skip runs to the end of the budget. *)
  Engine.advance engine ~ticks:10;
  check Alcotest.int "an advance ending on a skip reports" 50
    (Engine.next_proved engine);
  check Alcotest.bool "the module is quiescent" true (System.quiescent sys);
  check Alcotest.int "as a fresh probe would" 50
    (Air_exec.Clock.next_interesting sys);
  (* The skip stops short of tick 50, which is stepped last. *)
  Engine.advance engine ~ticks:41;
  check Alcotest.int "a stepped tick clears it" (-1)
    (Engine.next_proved engine);
  Engine.advance engine ~ticks:10;
  check Alcotest.int "the next frame's boundary" 100
    (Engine.next_proved engine);
  System.inject_module_error sys Error.Power_failure ~detail:"test";
  check Alcotest.bool "halted" true (System.halted sys <> None);
  Engine.advance engine ~ticks:10;
  check Alcotest.int "a halted module reports nothing" (-1)
    (Engine.next_proved engine)

(* Tentpole acceptance: the steady-state per-tick path allocates nothing.
   After the boot transient, [System.step] on the dense module must not
   touch the minor heap — scheduler, dispatcher, kernel announce, process
   schedule and interpreter all run on preallocated state. [Gc.minor_words]
   itself returns a boxed float, so the probe's own cost is calibrated
   first and the measured delta must equal it exactly. *)
let steady_state_tick_is_allocation_free () =
  (* The causal tracker rides along: its presence on the config must not
     put anything on the tick path (stamping itself is pinned
     allocation-free in [test_causal.ml]). *)
  let s =
    dense_system ~causal:(Air_obs.Causal.create ()) long_compute_body ()
  in
  System.run s ~ticks:200;
  let calibration =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  System.run s ~ticks:5_000;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words across 5000 steady ticks"
    calibration (after -. before)

(* --- Compute-span boundaries ---------------------------------------------- *)

(* Each row pins one cause that must end a compute span on its exact
   per-tick instant: a two-partition document (A first, so on two cores A
   holds lane 0 and B lane 1) under one 500-tick MTF, interventions
   applied between ticks, and a witness that the cause really occurs in
   the per-tick reference. Adaptive must reproduce Per_tick's
   observation on one and two cores. *)
type span_row = {
  cause : string;
  cores : int list;
  document : string;
  interventions : (int * (System.t -> unit)) list;
      (* (ticks executed, action), in order. *)
  witness : cores:int -> System.t -> bool;
}

(* [windows]: (partition, offset, duration); requirements are derived. *)
let span_document ?(a_policy = "") ?(ports = "") ?(extra = "") ~a ~b windows =
  let duration p =
    List.fold_left (fun acc (q, _, d) -> if q = p then acc + d else acc) 0
      windows
  in
  Printf.sprintf
    {|(air-system
  (partitions
    (partition (name A) %s (processes %s))
    (partition (name B) (processes %s)))
  %s
  (schedules
    (schedule (name s) (mtf 500)
      (requirements (req (partition A) (cycle 500) (duration %d))
                    (req (partition B) (cycle 500) (duration %d)))
      (windows %s)))
  (telemetry (retention 16))
  %s)|}
    a_policy a b ports (duration "A") (duration "B")
    (String.concat " "
       (List.map
          (fun (p, o, d) ->
            Printf.sprintf "(window (partition %s) (offset %d) (duration %d))"
              p o d)
          windows))
    extra

let halves = [ ("A", 0, 250); ("B", 250, 250) ]

let periodic ?(priority = 5) ?(capacity = 500) name body =
  Printf.sprintf
    "(process (name %s) (period 500) (capacity %d) (priority %d) (script %s \
     (periodic-wait)))"
    name capacity priority body

let idle_b = periodic "io" "(compute 20)"
let events sys = Trace.to_list (System.trace sys)

let output_at sys line =
  List.filter_map
    (function
      | t, Event.Application_output { line = l; _ } when l = line -> Some t
      | _ -> None)
    (events sys)

let some_partition_frame sys f =
  List.exists
    (fun (fr : Air_obs.Telemetry.frame) ->
      Array.exists f fr.Air_obs.Telemetry.f_partitions)
    (System.telemetry_frames sys)

(* Frame indices of the temporal-degradation errors raised against
   partition [p]. *)
let degradation_frames sys p =
  List.filter_map
    (function
      | ( t,
          Event.Hm_error
            { code = Error.Temporal_degradation; partition = Some q; _ } )
        when Ident.Partition_id.index q = p ->
        Some (t / 500)
      | _ -> None)
    (events sys)

let once_per_frame sys p =
  let fs = degradation_frames sys p in
  fs <> [] && List.length (List.sort_uniq Int.compare fs) = List.length fs

(* Budgets below the compute demand: A computes 300 and B 150 ticks per
   MTF against budgets of 200 and 120 (aggregate 320), over interleaved
   windows so both lanes charge every window. *)
let contention_document curve =
  span_document
    ~a:(periodic "hungry" "(compute 300)")
    ~b:(periodic "light" "(compute 150)")
    ~extra:
      (Printf.sprintf
         "(contention (budget (default 120) (A 200)) %s (compute-cost 1))"
         curve)
    [ ("A", 0, 150); ("B", 150, 100); ("A", 250, 150); ("B", 400, 100) ]

let span_rows =
  [ { cause = "window edge mid-compute, PAL catch-up at redispatch";
      cores = [ 1; 2 ];
      document =
        span_document
          ~a:(periodic "bulk" "(compute 180) (log \"bulk done\")")
          ~b:idle_b
          [ ("A", 0, 100); ("B", 100, 200); ("A", 300, 200) ];
      interventions = [];
      witness =
        (fun ~cores:_ sys ->
          output_at sys "bulk done" = [ 379; 879; 1379; 1879 ]
          && some_partition_frame sys (fun pf ->
                 pf.Air_obs.Telemetry.pf_catch_up_max >= 200)) };
    { cause = "higher-priority release mid-compute";
      cores = [ 1; 2 ];
      document =
        span_document
          ~a:
            (periodic ~priority:9 "bulk" "(compute 200)"
            ^ Printf.sprintf
                "(process (name ctl) (period 100) (capacity 100) (priority \
                 1) (script (compute 5) (log \"ctl\") (periodic-wait)))")
          ~b:idle_b halves;
      interventions = [];
      witness =
        (fun ~cores:_ sys ->
          List.mem 104 (output_at sys "ctl")
          && List.mem 204 (output_at sys "ctl")) };
    { cause = "overrun: violation at deadline + 1";
      cores = [ 1; 2 ];
      document =
        span_document
          ~a:(periodic ~capacity:100 "late" "(compute 150)")
          ~b:idle_b halves;
      interventions = [];
      witness =
        (fun ~cores:_ sys ->
          List.exists
            (function
              | 101, Event.Deadline_violation { deadline = 100; _ } -> true
              | _ -> false)
            (events sys)) };
    { cause = "contention budget blow mid-compute, HM once per frame";
      cores = [ 1; 2 ];
      document = contention_document "(curve)";
      interventions = [];
      witness =
        (fun ~cores:_ sys -> once_per_frame sys 0 && once_per_frame sys 1) };
    { cause = "stall arming once two lanes have charged";
      cores = [ 1; 2 ];
      document = contention_document "(curve (0 1))";
      interventions = [];
      witness =
        (fun ~cores sys ->
          once_per_frame sys 0 && once_per_frame sys 1
          && (cores = 1
             || some_partition_frame sys (fun pf ->
                    pf.Air_obs.Telemetry.pf_throttled > 0))) };
    { cause = "injected clock jitter mid-compute";
      cores = [ 1; 2 ];
      document =
        span_document ~a:(periodic "bulk" "(compute 200)") ~b:idle_b halves;
      interventions =
        [ (60, fun sys -> System.inject_clock_jitter sys (pid 0) ~ticks:20) ];
      witness =
        (fun ~cores:_ sys ->
          some_partition_frame sys (fun pf ->
              pf.Air_obs.Telemetry.pf_catch_up_max >= 20)) };
    { cause = "remote delivery wakes a higher-priority receiver";
      cores = [ 1; 2 ];
      document =
        span_document
          ~a:
            (periodic ~priority:9 "bulk" "(compute 200)"
            ^ "(process (name rx) (priority 1) (script (receive-queuing CMD \
               infinite) (compute 3) (log \"cmd\")))")
          ~b:idle_b
          ~ports:
            "(ports (queuing-port (name CMD) (partition A) (direction \
             destination) (depth 4) (max-size 16)))"
          halves;
      interventions =
        [ ( 61,
            fun sys ->
              ignore
                (System.deliver_remote sys
                   ~port:(Air_ipc.Router.resolve (System.router sys) "CMD")
                   (Bytes.of_string "go"))
          ) ];
      witness = (fun ~cores:_ sys -> output_at sys "cmd" = [ 63 ]) };
    { cause = "round-robin partition and preemption-locked heir";
      cores = [ 1; 2 ];
      document =
        span_document ~a_policy:"(policy (round-robin 4))"
          ~a:
            (periodic "p1" "(compute 50)" ^ periodic "p2" "(compute 50)")
          ~b:
            (periodic ~priority:9 "holder"
               "(lock-preemption) (compute 100) (unlock-preemption)"
            ^ "(process (name urgent) (priority 1) (script (timed-wait 30) \
               (compute 5) (log \"urgent\")))")
          halves;
      interventions = [];
      witness =
        (fun ~cores:_ sys ->
          match output_at sys "urgent" with
          | first :: _ -> first = 355
          | [] -> false) };
    { cause = "two lanes computing side by side share the aggregate";
      (* Overlapping windows are only valid sharded over two lanes. *)
      cores = [ 2 ];
      document =
        span_document
          ~a:(periodic "hungry" "(compute 300)")
          ~b:(periodic "light" "(compute 250)")
          ~extra:
            "(contention (budget (default 120) (A 200)) (compute-cost 1))"
          [ ("A", 0, 400); ("B", 0, 400) ];
      interventions = [];
      witness =
        (fun ~cores:_ sys ->
          some_partition_frame sys (fun pf ->
              pf.Air_obs.Telemetry.pf_throttled > 0)) } ]

let span_horizon = (4 * 500) + 137

let run_span_row row ~cores mode =
  let config =
    match Air_config.Loader.load row.document with
    | Ok c -> { c with System.cores = Some cores }
    | Error e -> Alcotest.failf "%s: %s" row.cause e
  in
  let engine = Engine.create ~mode (System.create config) in
  let sys = Engine.system engine in
  let executed =
    List.fold_left
      (fun executed (at, act) ->
        Engine.advance engine ~ticks:(at - executed);
        act sys;
        at)
      0 row.interventions
  in
  Engine.advance engine ~ticks:(span_horizon - executed);
  engine

let compute_span_boundaries () =
  List.iter
    (fun row ->
      List.iter
        (fun cores ->
          let what = Printf.sprintf "%s (%d core)" row.cause cores in
          let reference =
            Engine.system (run_span_row row ~cores Engine.Per_tick)
          in
          check Alcotest.bool (what ^ ": cause occurs") true
            (row.witness ~cores reference);
          let engine = run_span_row row ~cores Engine.Adaptive in
          Observed.systems ~what:(what ^ ", adaptive") reference
            (Engine.system engine);
          check Alcotest.bool
            (what ^ ", adaptive: spans skipped")
            true
            ((Engine.stats engine).Engine.skipped > 0))
        row.cores)
    span_rows

(* --- Self-profiler -------------------------------------------------------- *)

(* The profiler is observational: attaching one must not change a single
   bit of the observable run, and its step/batch/skip tick buckets must
   partition the simulated horizon exactly — in both modes. The satellite
   workload exercises all three buckets (sparse spans skip, dense phases
   batch, interesting ticks step). *)
let profile_ticks = 20_000

let profiler_buckets_partition_ticks () =
  let reference = Air_workload.Satellite.make () in
  System.run reference ~ticks:profile_ticks;
  List.iter
    (fun (label, mode) ->
      let profiler = Air_exec.Profiler.create () in
      let engine =
        Engine.create ~profiler ~mode (Air_workload.Satellite.make ())
      in
      Engine.advance engine ~ticks:profile_ticks;
      check Alcotest.bool
        (label ^ ": engine keeps the profiler")
        true
        (match Engine.profiler engine with
        | Some p -> p == profiler
        | None -> false);
      check Alcotest.int
        (label ^ ": buckets partition the horizon")
        profile_ticks
        (Air_exec.Profiler.simulated profiler);
      check Alcotest.int
        (label ^ ": probes attributed")
        (Engine.stats engine).Engine.probes
        (Air_exec.Profiler.probes profiler);
      Observed.systems ~what:(label ^ ": profiled run") reference
        (Engine.system engine);
      let json = Air_exec.Profiler.to_json profiler in
      (match Json_lint.check json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid profile JSON: %s" label e);
      check Alcotest.bool
        (label ^ ": profile schema")
        true
        (Astring_contains.contains json "\"schema\":\"air-profile/1\""))
    [ ("per-tick", Engine.Per_tick); ("adaptive", Engine.Adaptive) ]

(* Mode-specific attribution: per-tick advances are blind batches (no
   probes, no skips); the adaptive satellite run pays probes, uses skips
   (sparse idle spans) and records a density trajectory. *)
let profiler_attributes_by_mode () =
  let run mode =
    let profiler = Air_exec.Profiler.create () in
    let engine =
      Engine.create ~profiler ~mode (Air_workload.Satellite.make ())
    in
    Engine.advance engine ~ticks:profile_ticks;
    (profiler, Engine.stats engine)
  in
  let p, _ = run Engine.Per_tick in
  check Alcotest.int "per-tick: no probes" 0 (Air_exec.Profiler.probes p);
  check Alcotest.(list int) "per-tick: no density samples" []
    (Air_exec.Profiler.density_trajectory p);
  let p, stats = run Engine.Adaptive in
  check Alcotest.bool "adaptive: probes paid" true (stats.Engine.probes > 0);
  check Alcotest.int "adaptive: every probe attributed" stats.Engine.probes
    (Air_exec.Profiler.probes p);
  check Alcotest.bool "adaptive: skips engaged" true (stats.Engine.skipped > 0);
  check Alcotest.bool "adaptive: density sampled" true
    (Air_exec.Profiler.density_trajectory p <> [])

(* --- The Sect. 6 prototype ---------------------------------------------- *)

let satellite_ticks = 20_000

let satellite_skip_equivalence () =
  let reference = Air_workload.Satellite.make () in
  System.run reference ~ticks:satellite_ticks;
  let engine =
    Engine.create (Air_workload.Satellite.make ())
  in
  Engine.advance engine ~ticks:satellite_ticks;
  Observed.systems ~what:"satellite" reference (Engine.system engine);
  (* The satellite workload has idle spans: skip-ahead must actually
     engage, otherwise the executive degenerated to per-tick. *)
  let stats = Engine.stats engine in
  check Alcotest.bool "some ticks skipped" true (stats.Engine.skipped > 0);
  check Alcotest.int "stepped + skipped" satellite_ticks
    (stats.Engine.stepped + stats.Engine.skipped)

let multicore_skip_equivalence () =
  let make () =
    let config = Air_workload.Satellite.config () in
    System.create { config with System.cores = Some 2 }
  in
  let reference = make () in
  System.run reference ~ticks:satellite_ticks;
  let engine = Engine.create (make ()) in
  Engine.advance engine ~ticks:satellite_ticks;
  check Alcotest.int "2 cores" 2 (System.cores (Engine.system engine));
  Observed.systems ~what:"satellite --cores 2" reference
    (Engine.system engine)

let run_mtfs_equivalence () =
  let reference = Air_workload.Satellite.make () in
  System.run_mtfs reference 7;
  let engine =
    Engine.create (Air_workload.Satellite.make ())
  in
  Engine.run_mtfs engine 7;
  Observed.systems ~what:"run_mtfs" reference (Engine.system engine)

(* Pin the schedule-switch boundary fix: when an iteration starts at an
   MTF boundary with a pending switch to a different-MTF schedule, the
   switch takes effect on the boundary tick and the iteration must finish
   the frame of the schedule *now running* — not advance the old MTF's
   worth of ticks into the new frame. *)
let s0_20 =
  Schedule.make ~id:(sid 0) ~name:"S0" ~mtf:20
    ~requirements:[ q (pid 0) 20 10; q (pid 1) 20 10 ]
    [ w (pid 0) 0 10; w (pid 1) 10 10 ]

let s1_40 =
  Schedule.make ~id:(sid 1) ~name:"S1" ~mtf:40
    ~requirements:[ q (pid 0) 40 10 ]
    [ w (pid 0) 0 10 ]

let switch_system () =
  let p name i =
    Partition.make ~id:(pid i) ~name
      [ Process.spec ~periodicity:(Process.Periodic 20) ~time_capacity:20
          ~wcet:4 ~base_priority:5 "work" ]
  in
  let script =
    { Script.body = [| Script.Compute 4; Script.Periodic_wait |];
      on_end = Script.Repeat }
  in
  System.create
    (System.config
       ~partitions:
         [ System.partition_setup (p "A" 0) [ script ];
           System.partition_setup (p "B" 1) [ script ] ]
       ~schedules:[ s0_20; s1_40 ] ())

let run_mtfs_whole_frames_across_switch () =
  let reference = switch_system () in
  (* [run_mtfs] leaves the clock one tick before the frame-close tick
     (the close happens on the next frame's offset-0 tick), so each
     iteration's net advance is exactly one MTF of the running schedule. *)
  System.run_mtfs reference 1;
  check Alcotest.int "one whole S0 frame" 19 (System.now reference);
  Result.get_ok (System.request_schedule reference (sid 1));
  System.run_mtfs reference 1;
  (* The boundary tick effects the 20 -> 40 switch; the iteration then
     finishes the 40-tick S1 frame: 19 + 40 = 59. The old code advanced
     only the stale 20-tick MTF, stopping half a frame in at 39. *)
  check Alcotest.int "switch iteration advances a whole S1 frame" 59
    (System.now reference);
  System.run_mtfs reference 2;
  check Alcotest.int "subsequent iterations are whole S1 frames" 139
    (System.now reference);
  (* The engine mirror takes the same path, bit-identically. *)
  let engine = Engine.create (switch_system ()) in
  Engine.run_mtfs engine 1;
  Result.get_ok (System.request_schedule (Engine.system engine) (sid 1));
  Engine.run_mtfs engine 3;
  Observed.systems ~what:"run_mtfs across a 20 -> 40 switch" reference
    (Engine.system engine)

(* --- Shipped campaigns --------------------------------------------------- *)

(* The example files ship fault-injection campaigns; under --turbo the
   engine must reproduce the per-tick run bit for bit: same fingerprint,
   same oracle verdict, same air-campaign/1 JSON. Every campaign is also
   replay-checked and contained, on one lane and on two. The paths are
   relative to the test's build directory (declared as a dune dep). *)
let leo_path = "../examples/configs/leo_satellite.air"
let node_path = "../examples/configs/constellation_node.air"

let leo_campaigns_turbo_identical () =
  List.iter
    (fun path ->
      let config =
        match Air_config.Loader.load_file path with
        | Ok config -> config
        | Error msg -> Alcotest.failf "load %s: %s" path msg
      in
      let specs =
        match Air_config.Loader.load_campaigns_file path with
        | Ok specs -> specs
        | Error msg -> Alcotest.failf "campaigns %s: %s" path msg
      in
      check Alcotest.bool "campaigns present" true (specs <> []);
      List.iter
        (fun cores ->
          let make () =
            E.Module (System.create { config with System.cores = Some cores })
          in
          List.iter
            (fun spec ->
              let what = Printf.sprintf "%s, %d lane(s)" spec.C.name cores in
              let per_tick = E.execute ~turbo:false ~make spec in
              let turbo = E.execute ~turbo:true ~make spec in
              Observed.systems
                ~what:(what ^ ": observed module")
                (E.observed per_tick.E.target)
                (E.observed turbo.E.target);
              check Alcotest.string (what ^ ": fingerprint")
                per_tick.E.fingerprint turbo.E.fingerprint;
              let verdict = O.check turbo in
              check
                Alcotest.(list string)
                (what ^ ": contained")
                []
                (List.map (Format.asprintf "%a" O.pp_finding)
                   verdict.O.findings);
              let json run = R.to_json (R.make run (O.check run)) in
              check Alcotest.string
                (what ^ ": air-campaign/1 JSON")
                (json per_tick) (json turbo))
            specs)
        [ 1; 2 ])
    [ leo_path; node_path ]

let leo_turbo_reproducible () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  match Air_config.Loader.load_campaigns_file leo_path with
  | Error msg -> Alcotest.failf "campaigns %s: %s" leo_path msg
  | Ok specs ->
    let make () = E.Module (System.create config) in
    List.iter
      (fun spec ->
        check Alcotest.bool
          (spec.C.name ^ ": reproducible under turbo")
          true
          (E.reproducible ~turbo:true ~make spec))
      specs

(* --- Golden exports ------------------------------------------------------ *)

(* Every harness above compares engine modes or lane counts against each
   other over the same lane code, so a change that altered all of them
   alike would pass. These digests pin the exports themselves: the MD5 of
   the Chrome trace, metrics JSON and telemetry frames of leo_satellite.air
   with a 4096-entry flight recorder and causal tracker, over 20 000 ticks,
   on one and two cores under Per_tick and Adaptive. *)
let golden_digests =
  [ (1, Engine.Per_tick, "9230aded177ad9aca15e3563393e185d");
    (1, Engine.Adaptive, "9230aded177ad9aca15e3563393e185d");
    (2, Engine.Per_tick, "d4f1ae3a2a50fe08c5eabd594a74ea80");
    (2, Engine.Adaptive, "d4f1ae3a2a50fe08c5eabd594a74ea80") ]

let golden_exports () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  List.iter
    (fun (cores, mode, expected) ->
      let system =
        System.create
          { config with
            System.cores = Some cores;
            recorder = Some (Air_obs.Span.create ~capacity:4096 ());
            causal = Some (Air_obs.Causal.create ~capacity:4096 ()) }
      in
      Engine.advance (Engine.create ~mode system) ~ticks:20_000;
      ignore (System.telemetry_flush system);
      let exports =
        System.chrome_trace system
        ^ System.metrics_json system
        ^ Air_obs.Telemetry.to_json (System.telemetry_frames system)
      in
      check Alcotest.string
        (Printf.sprintf "%d core(s), %s" cores
           (if mode = Engine.Per_tick then "per-tick" else "adaptive"))
        expected
        (Digest.to_hex (Digest.string exports)))
    golden_digests

(* --- Metric views -------------------------------------------------------- *)

(* A metric that restates a fact another structure holds is a view of it:
   the switch and deadline counts equal their event kinds at every lane
   count, [pmk.ticks] the ticks advanced, the [hm.errors.*] levels and
   codes each sum to the HM errors recorded, and [pal.store_size.pN] the
   partition's deadline store. *)
let views_match ~what s ~ticks =
  let metric name =
    match Air_obs.Metrics.find (System.metrics s) name with
    | Some (Air_obs.Metrics.Counter_value n | Air_obs.Metrics.Gauge_value n) ->
      n
    | Some (Air_obs.Metrics.Histogram_value _) | None ->
      Alcotest.failf "%s: no metric %s" what name
  in
  let events label =
    Option.value ~default:0 (List.assoc_opt label (System.event_counts s))
  in
  let equal name expected =
    check Alcotest.int (Printf.sprintf "%s: %s" what name) expected
      (metric name)
  in
  List.iter
    (fun (name, label) -> equal name (events label))
    [ ("pmk.context_switches", "context-switch");
      ("pmk.schedule_switches", "schedule-switch");
      ("pal.deadlines_registered", "deadline-registered");
      ("pal.deadlines_unregistered", "deadline-unregistered");
      ("pal.deadline_violations", "deadline-violation") ];
  equal "pmk.ticks" ticks;
  let hm_errors = events "hm-error" in
  check Alcotest.int (what ^ ": hm.errors by level") hm_errors
    (metric "hm.errors.process" + metric "hm.errors.partition"
    + metric "hm.errors.module");
  check Alcotest.int (what ^ ": hm.errors by code") hm_errors
    (List.fold_left
       (fun n code ->
         n + metric (Format.asprintf "hm.errors.code.%a" Error.pp_code code))
       0 Error.all_codes);
  List.iter
    (fun p ->
      equal
        (Printf.sprintf "pal.store_size.p%d" (Ident.Partition_id.index p))
        (Air.Pal.deadline_count (System.pal_of s p)))
    (System.partition_ids s)

let views_on_random_modules =
  QCheck.Test.make ~name:"metric views equal their sources on random modules"
    ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      List.iter
        (fun (cores, mode) ->
          match taskgen_system ~cores seed with
          | None -> ()
          | Some (s, mtf) ->
            let ticks = (3 * mtf) + (seed mod 997) in
            Engine.advance (Engine.create ~mode s) ~ticks;
            views_match s ~ticks
              ~what:
                (Printf.sprintf "seed %d, %d lane(s), %s" seed cores
                   (if mode = Engine.Per_tick then "per-tick" else "adaptive")))
        [ (1, Engine.Per_tick); (1, Engine.Adaptive); (2, Engine.Per_tick);
          (2, Engine.Adaptive) ];
      true)

let views_on_documents () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  List.iter
    (fun cores ->
      let s = System.create { config with System.cores = Some cores } in
      System.run s ~ticks:20_000;
      views_match s ~ticks:20_000
        ~what:(Printf.sprintf "leo_satellite, %d lane(s)" cores))
    [ 1; 2 ];
  (* A campaign target whose Health Monitor resolves errors. *)
  let errors =
    match Air_config.Loader.load_campaigns_file leo_path with
    | Error msg -> Alcotest.failf "campaigns %s: %s" leo_path msg
    | Ok specs ->
      List.fold_left
        (fun n spec ->
          let make () = E.Module (System.create config) in
          let run = E.execute ~turbo:true ~make spec in
          match run.E.target with
          | E.Module s ->
            views_match s ~ticks:spec.C.horizon
              ~what:("leo_satellite campaign " ^ spec.C.name);
            n + Air.Hm.error_count (System.hm s)
          | E.Driver _ -> n)
        0 specs
  in
  check Alcotest.bool "the campaigns raise HM errors" true (errors > 0);
  let s = Test_system.replenish_system () in
  System.run s ~ticks:400;
  views_match s ~ticks:400 ~what:"REPLENISH module"

let suite =
  [ qcheck skip_matches_per_tick_on_random_modules;
    qcheck modes_agree_sparse;
    qcheck modes_agree_dense;
    Alcotest.test_case "dense module: adaptive never probes" `Quick
      adaptive_never_probes_when_dense;
    Alcotest.test_case "long compute: one stepped tick per MTF" `Quick
      long_compute_steps_once_per_mtf;
    Alcotest.test_case "compute spans end on their per-tick instant" `Quick
      compute_span_boundaries;
    Alcotest.test_case "dense module: steady tick is allocation-free" `Quick
      steady_state_tick_is_allocation_free;
    Alcotest.test_case "engine: the probe report" `Quick probe_report;
    Alcotest.test_case "profiler: buckets partition the horizon" `Quick
      profiler_buckets_partition_ticks;
    Alcotest.test_case "profiler: attribution per mode" `Quick
      profiler_attributes_by_mode;
    Alcotest.test_case "run_mtfs: whole frames across a schedule switch"
      `Quick run_mtfs_whole_frames_across_switch;
    Alcotest.test_case "satellite: skip-ahead bit-identical" `Quick
      satellite_skip_equivalence;
    Alcotest.test_case "satellite: multicore skip-ahead bit-identical" `Quick
      multicore_skip_equivalence;
    Alcotest.test_case "run_mtfs mirrors System.run_mtfs" `Quick
      run_mtfs_equivalence;
    Alcotest.test_case "leo_satellite: campaigns identical under turbo" `Slow
      leo_campaigns_turbo_identical;
    Alcotest.test_case "leo_satellite: turbo runs reproducible" `Slow
      leo_turbo_reproducible;
    Alcotest.test_case "leo_satellite: golden exports" `Quick golden_exports;
    qcheck views_on_random_modules;
    Alcotest.test_case "metric views equal their sources on documents" `Quick
      views_on_documents ]
