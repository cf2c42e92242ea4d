(* Shared-resource contention model (Air_spatial.Contention) and its
   wiring through the executive:

   - pure window accounting: budgets, the exactly-once blow signal, the
     slowdown curve's co-run gating, pressure decay, rollover reset;
   - MTF-boundary budget reset and schedule-switch hygiene — no demand or
     stall debt leaks across windows;
   - inert contention (huge budgets) is observationally invisible: every
     section of the observation but the contention accounts matches a
     contention-free run across every engine mode and lane count (qcheck
     over seeded random modules);
   - active contention stays bit-identical across Per_tick and Adaptive
     (stall consumption is never skipped over);
   - multicore victims on other lanes throttle only within the modeled
     curve, and the budget blow escalates as temporal degradation exactly
     once per offending frame;
   - the (contention …) grammar round-trips through Encode, including the
     meaningful present-but-empty curve. *)

open Air_sim
open Air_model
open Air_pos
open Air
open Ident
module Contention = Air_spatial.Contention
module Engine = Air_exec.Engine

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

let count_events p s = Trace.count p (System.trace s)

let degradations s =
  count_events
    (function
      | Event.Hm_error { code = Error.Temporal_degradation; _ } -> true
      | _ -> false)
    s

(* --- Pure window accounting --------------------------------------------- *)

let config_validation () =
  let invalid f = Alcotest.check_raises "rejected" (Invalid_argument "") f in
  let invalid f =
    ignore invalid;
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Contention.config ~default_budget:0 ());
  invalid (fun () ->
      Contention.config ~default_budget:10 ~budgets:[ (0, -1) ] ());
  invalid (fun () ->
      Contention.config ~default_budget:10 ~curve:[ (100, 1); (100, 2) ] ());
  invalid (fun () ->
      Contention.config ~default_budget:10 ~curve:[ (0, -1) ] ());
  invalid (fun () ->
      Contention.config ~default_budget:10 ~pressure_decay_permille:1001 ());
  (* Budget overrides must name existing partitions. *)
  invalid (fun () ->
      Contention.create ~partitions:2 ~lanes:1
        (Contention.config ~default_budget:10 ~budgets:[ (5, 3) ] ()))

let blow_exactly_once_per_window () =
  let c =
    Contention.create ~partitions:2 ~lanes:1
      (Contention.config ~default_budget:5 ())
  in
  check Alcotest.bool "under budget" false
    (Contention.charge c ~partition:0 ~cost:5);
  check Alcotest.bool "first over-budget charge reports" true
    (Contention.charge c ~partition:0 ~cost:1);
  check Alcotest.bool "second does not" false
    (Contention.charge c ~partition:0 ~cost:10);
  check Alcotest.bool "blown" true (Contention.blown c 0);
  check Alcotest.int "demand accumulated" 16 (Contention.demand c 0);
  Contention.rollover c ~now:100;
  check Alcotest.bool "reset" false (Contention.blown c 0);
  check Alcotest.int "demand reset" 0 (Contention.demand c 0);
  check Alcotest.bool "blows again next window" true
    (Contention.charge c ~partition:0 ~cost:6)

let curve_requires_two_busy_lanes () =
  let cfg = Contention.config ~default_budget:5 ~curve:[ (0, 1) ] () in
  (* Single lane: aggregate overrun alone never stalls anyone. *)
  let c = Contention.create ~partitions:2 ~lanes:2 cfg in
  ignore (Contention.charge c ~partition:0 ~cost:20);
  check Alcotest.int "one busy lane" 1 (Contention.busy_lanes c);
  check Alcotest.int "no stall" 0 (Contention.stall_debt c 0);
  (* A second lane with demand arms the curve for further charges. *)
  Contention.set_lane c 1;
  ignore (Contention.charge c ~partition:1 ~cost:1);
  check Alcotest.int "two busy lanes" 2 (Contention.busy_lanes c);
  check Alcotest.int "charging partition stalls" 1
    (Contention.stall_debt c 1);
  check Alcotest.bool "stall pending" true
    (Contention.stall_pending c ~partition:1);
  Contention.consume_stall c ~partition:1;
  check Alcotest.int "consumed counts as throttled" 1
    (Contention.throttled c 1);
  check Alcotest.bool "debt served" false
    (Contention.stall_pending c ~partition:1)

let curve_steps_with_overage () =
  let cfg =
    Contention.config ~default_budget:5 ~curve:[ (0, 1); (500, 3) ] ()
  in
  let c = Contention.create ~partitions:2 ~lanes:2 cfg in
  check Alcotest.int "largest step is the oracle bound" 3
    (Contention.max_stall_per_access c);
  ignore (Contention.charge c ~partition:0 ~cost:10);
  Contention.set_lane c 1;
  (* Aggregate budget 10; demand 11 → 100‰ over → step 1. *)
  ignore (Contention.charge c ~partition:1 ~cost:1);
  check Alcotest.int "low overage, small step" 1 (Contention.stall_debt c 1);
  (* Demand 16 → 600‰ over → step 3. *)
  ignore (Contention.charge c ~partition:1 ~cost:5);
  check Alcotest.int "high overage, big step" 4 (Contention.stall_debt c 1)

let pressure_decays_across_windows () =
  let cfg =
    Contention.config ~default_budget:100 ~pressure_decay_permille:500 ()
  in
  let c = Contention.create ~partitions:2 ~lanes:1 cfg in
  ignore (Contention.charge c ~partition:0 ~cost:40);
  Contention.rollover c ~now:100;
  check Alcotest.int "window demand folded in" 40 (Contention.pressure c 0);
  Contention.rollover c ~now:200;
  check Alcotest.int "halved by decay" 20 (Contention.pressure c 0);
  ignore (Contention.charge c ~partition:1 ~cost:8);
  Contention.rollover c ~now:300;
  check Alcotest.int "co-runner pressure sums the others" 8
    (Contention.co_runner_pressure c 0);
  check Alcotest.int "and vice versa" 10 (Contention.co_runner_pressure c 1)

(* --- Module construction helpers ----------------------------------------- *)

(* Two partitions, one process each, alternating 50-tick windows in a
   100-tick MTF. Each process touches memory [reads] times per activation
   (granted in-region reads: TLB hit = 1 unit each after the first walk).
   Memory accesses are zero-duration script actions, so each read is
   paired with a one-tick computation — the window's charges spread over
   [reads] consecutive ticks instead of landing in one. Building happens
   in two passes: a probe run resolves the deterministic region bases the
   scripts then read from. *)
let hammer_config ?cores ?contention ?telemetry ~reads () =
  let make_parts scripts =
    List.mapi
      (fun i (name, script) ->
        System.partition_setup
          (Partition.make ~id:(pid i) ~name
             [ Process.spec ~periodicity:(Process.Periodic 100)
                 ~time_capacity:Time.infinity ~wcet:50 ~base_priority:5
                 "worker" ])
          [ script ])
      scripts
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"alt" ~mtf:100
      ~requirements:[ q (pid 0) 100 50; q (pid 1) 100 50 ]
      [ w (pid 0) 0 50; w (pid 1) 50 50 ]
  in
  let probe =
    System.create
      (System.config
         ~partitions:
           (make_parts
              [ ("A", Script.periodic_body [ Script.Compute 1 ]);
                ("B", Script.periodic_body [ Script.Compute 1 ]) ])
         ~schedules:[ schedule ] ())
  in
  let base i =
    match System.region_of probe (pid i) Air_spatial.Memory.Data with
    | Some r -> r.Air_spatial.Memory.base
    | None -> Alcotest.fail "probe module has no data region"
  in
  let script i =
    Script.periodic_body
      (List.concat
         (List.init reads (fun _ ->
              [ Script.Read_memory (base i); Script.Compute 1 ])))
  in
  System.config
    ~partitions:(make_parts [ ("A", script 0); ("B", script 1) ])
    ~schedules:[ schedule ] ?cores ?contention ?telemetry ()

(* --- Window hygiene ------------------------------------------------------ *)

(* Per-window demand is [reads + 1] units (one TLB miss walk on the very
   first access of the run, hits after). A budget above one window's worth
   but below two would blow by the second MTF if anything leaked. *)
let no_leak_across_windows () =
  let contention = Contention.config ~default_budget:15 () in
  let s = System.create (hammer_config ~contention ~reads:10 ()) in
  System.run s ~ticks:1000;
  check Alcotest.int "no budget blow across 10 clean windows" 0
    (degradations s);
  (match System.contention s with
  | None -> Alcotest.fail "contention model expected"
  | Some c ->
    check Alcotest.bool "window account stays bounded" true
      (Contention.demand c 0 <= 15))

let blow_once_per_offending_frame () =
  let contention = Contention.config ~default_budget:4 () in
  let telemetry = Air_obs.Telemetry.default_config in
  let s =
    System.create (hammer_config ~contention ~telemetry ~reads:10 ())
  in
  (* Boundary ticks close the previous frame at the start of the next
     step: one tick past the last boundary closes all ten frames, and the
     freshly opened window has only one sub-budget read charged. *)
  System.run s ~ticks:1001;
  let frames = System.telemetry_frames s in
  let offending =
    List.fold_left
      (fun acc f ->
        Array.fold_left
          (fun acc pf ->
            if pf.Air_obs.Telemetry.pf_mem_demand
               > pf.Air_obs.Telemetry.pf_mem_budget
            then acc + 1
            else acc)
          acc f.Air_obs.Telemetry.f_partitions)
      0 frames
  in
  check Alcotest.bool "some frames offend" true (offending > 0);
  check Alcotest.int "exactly one degradation per offending frame"
    offending (degradations s);
  List.iter
    (fun f ->
      check Alcotest.bool "frames are marked" true
        f.Air_obs.Telemetry.f_interference)
    frames

(* The boundary tick's charges belong to the new window: run to exactly
   one tick past a boundary and the open window holds at most that one
   tick's worth of demand. *)
let boundary_charges_open_new_window () =
  let contention = Contention.config ~default_budget:1000 () in
  let s = System.create (hammer_config ~contention ~reads:10 ()) in
  System.run s ~ticks:301;
  match System.contention s with
  | None -> Alcotest.fail "contention model expected"
  | Some c ->
    check Alcotest.int "window reopened at the boundary" 300
      (Contention.window_start c);
    check Alcotest.bool "fresh window holds one tick's charges" true
      (Contention.demand c 0 + Contention.demand c 1 <= 5)

(* --- Observational invisibility (qcheck) --------------------------------- *)

let taskgen_config ?cores ?contention seed =
  let rng = Rng.create seed in
  let n_partitions = 2 + (seed mod 3) in
  let gen =
    Air_workload.Taskgen.generate rng ~n_partitions ~procs_per_partition:2
      ~utilization:0.4
  in
  match
    Air_analysis.Synthesis.synthesize gen.Air_workload.Taskgen.requirements
  with
  | Error _ -> None
  | Ok schedule ->
    Some
      ( System.config
          ~partitions:
            (List.map
               (fun (p, scripts) -> System.partition_setup p scripts)
               gen.Air_workload.Taskgen.partitions)
          ~schedules:[ schedule ] ?cores ?contention (),
        schedule.Schedule.mtf )

(* Charging without consequence (huge budgets, charged compute ticks, no
   curve) must be invisible: the same observation as a module with no
   contention at all, whatever the lane count and engine mode, but for
   the accounts themselves. *)
let inert_contention_is_invisible =
  QCheck.Test.make
    ~name:"inert contention is trace-invisible (all modes, 1-4 lanes)"
    ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let cores = 1 + (seed mod 4) in
      let inert =
        Contention.config ~default_budget:1_000_000_000 ~curve:[]
          ~compute_cost:1 ()
      in
      let modes = [ Engine.Per_tick; Engine.Adaptive ] in
      List.for_all
        (fun mode ->
          match
            (taskgen_config ~cores seed, taskgen_config ~cores ~contention:inert seed)
          with
          | None, _ | _, None -> QCheck.assume_fail ()
          | Some (plain, mtf), Some (contended, _) ->
            let ticks = (3 * mtf) + (seed mod 997) in
            let reference = System.create plain in
            Engine.advance (Engine.create ~mode reference) ~ticks;
            let candidate = System.create contended in
            Engine.advance (Engine.create ~mode candidate) ~ticks;
            (* One side has contention accounts, the other no model. *)
            let observe s =
              (List.remove_assoc "contention" (Observe.system s), [| s |])
            in
            Observed.same
              ~what:(Printf.sprintf "seed %d cores %d" seed cores)
              (observe reference) (observe candidate);
            true)
        modes)

(* Active contention (tight budgets, stalls, HM escalations) is engine-mode
   independent: stall consumption must never be skipped over. *)
let active_contention_mode_independent =
  QCheck.Test.make
    ~name:"active contention is bit-identical across engine modes" ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let cores = 2 + (seed mod 3) in
      let tight =
        Contention.config ~default_budget:20 ~curve:[ (0, 1); (300, 2) ]
          ~compute_cost:1 ()
      in
      let build () =
        match taskgen_config ~cores ~contention:tight seed with
        | None -> None
        | Some (cfg, mtf) -> Some (System.create cfg, mtf)
      in
      match (build (), build ()) with
      | None, _ | _, None -> QCheck.assume_fail ()
      | Some (per_tick, mtf), Some (adaptive, _) ->
        let ticks = (3 * mtf) + (seed mod 997) in
        Engine.advance (Engine.create ~mode:Engine.Per_tick per_tick) ~ticks;
        Engine.advance (Engine.create ~mode:Engine.Adaptive adaptive) ~ticks;
        Observed.systems
          ~what:(Printf.sprintf "seed %d adaptive" seed)
          per_tick adaptive;
        true)

(* --- Multicore victims --------------------------------------------------- *)

(* Partition 1 (lane 1 under 2-core sharding) hogs the bus mid-window;
   partition 0's later window on lane 0 sees an armed curve and throttles
   — but only within the modeled bound. *)
let victim_throttles_within_curve () =
  let contention =
    Contention.config ~default_budget:8 ~curve:[ (0, 1) ] ()
  in
  let telemetry = Air_obs.Telemetry.default_config in
  (* Windows flipped: the hog's partition runs first. *)
  let cfg = hammer_config ~cores:2 ~contention ~telemetry ~reads:6 () in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"alt" ~mtf:100
      ~requirements:[ q (pid 0) 100 50; q (pid 1) 100 50 ]
      [ w (pid 1) 0 50; w (pid 0) 50 50 ]
  in
  let cfg = { cfg with System.schedules = [ schedule ] } in
  let s = System.create cfg in
  System.run s ~ticks:10;
  (match System.inject_bandwidth_hog s (pid 1) ~permille:3000 with
  | None -> Alcotest.fail "contention model expected"
  | Some cost -> check Alcotest.bool "burst charged" true (cost > 0));
  (* One tick past the MTF boundary so the frame for [0,100) closes. *)
  System.run s ~ticks:91;
  let frames = System.telemetry_frames s in
  check Alcotest.int "one frame closed" 1 (List.length frames);
  let f = List.hd frames in
  let victim = f.Air_obs.Telemetry.f_partitions.(0) in
  let hog = f.Air_obs.Telemetry.f_partitions.(1) in
  check Alcotest.bool "hog blew its budget" true
    (hog.Air_obs.Telemetry.pf_mem_demand
    > hog.Air_obs.Telemetry.pf_mem_budget);
  check Alcotest.bool "victim on the other lane throttled" true
    (victim.Air_obs.Telemetry.pf_throttled > 0);
  let bound =
    match System.contention s with
    | Some c ->
      Contention.max_stall_per_access c
      * victim.Air_obs.Telemetry.pf_mem_demand
    | None -> 0
  in
  check Alcotest.bool "within the curve bound" true
    (victim.Air_obs.Telemetry.pf_throttled <= bound);
  check Alcotest.bool "hog escalated" true (degradations s > 0);
  (* And the next window starts clean. *)
  System.run s ~ticks:1;
  match System.contention s with
  | Some c ->
    check Alcotest.int "no stall debt across the boundary" 0
      (Contention.stall_debt c 0 + Contention.stall_debt c 1)
  | None -> ()

(* --- Grammar round-trip -------------------------------------------------- *)

let doc curve =
  Printf.sprintf
    {|(air-system
  (partitions
    (partition (name A)
      (processes
        (process (name t) (period 100) (script (compute 10) (periodic-wait)))))
    (partition (name B)
      (processes
        (process (name u) (period 100) (script (compute 10) (periodic-wait))))))
  (schedules
    (schedule (name all) (mtf 100)
      (requirements (req (partition A) (cycle 100) (duration 50))
                    (req (partition B) (cycle 100) (duration 50)))
      (windows (window (partition A) (offset 0) (duration 50))
               (window (partition B) (offset 50) (duration 50)))))
  (contention
    (budget (default 40) (B 25))
    %s
    (compute-cost 2)
    (pressure-decay 750)))|}
    curve

let grammar_round_trip () =
  match Air_config.Loader.load (doc "(curve (0 1) (500 3))") with
  | Error e -> Alcotest.fail e
  | Ok cfg -> (
    let c = Option.get cfg.System.contention in
    check Alcotest.int "default budget" 40 c.Contention.default_budget;
    check
      Alcotest.(list (pair int int))
      "override" [ (1, 25) ] c.Contention.budgets;
    check
      Alcotest.(list (pair int int))
      "curve"
      [ (0, 1); (500, 3) ]
      c.Contention.curve;
    check Alcotest.int "compute cost" 2 c.Contention.compute_cost;
    check Alcotest.int "decay" 750 c.Contention.pressure_decay_permille;
    match Air_config.Loader.load (Air_config.Encode.to_string cfg) with
    | Error e -> Alcotest.fail ("re-load: " ^ e)
    | Ok cfg' ->
      check Alcotest.bool "contention round-trips" true
        (cfg'.System.contention = cfg.System.contention))

let grammar_empty_curve_and_errors () =
  (match Air_config.Loader.load (doc "(curve)") with
  | Error e -> Alcotest.fail e
  | Ok cfg -> (
    let c = Option.get cfg.System.contention in
    check Alcotest.(list (pair int int)) "empty curve kept" [] c.Contention.curve;
    match Air_config.Loader.load (Air_config.Encode.to_string cfg) with
    | Error e -> Alcotest.fail ("re-load: " ^ e)
    | Ok cfg' ->
      check Alcotest.bool "empty curve round-trips" true
        (cfg'.System.contention = cfg.System.contention)));
  (match Air_config.Loader.load (doc "") with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let c = Option.get cfg.System.contention in
    check
      Alcotest.(list (pair int int))
      "absent curve defaults" [ (0, 1) ] c.Contention.curve);
  let bad =
    String.concat ""
      (String.split_on_char '4' (doc "(curve (0 1))") |> function
       | a :: rest -> a :: "0" :: rest
       | [] -> [])
  in
  match Air_config.Loader.load bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero default budget must be rejected"

let suite =
  [ Alcotest.test_case "config validation" `Quick config_validation;
    Alcotest.test_case "budget blow reported exactly once per window" `Quick
      blow_exactly_once_per_window;
    Alcotest.test_case "curve armed only by co-running lanes" `Quick
      curve_requires_two_busy_lanes;
    Alcotest.test_case "curve steps with overage" `Quick
      curve_steps_with_overage;
    Alcotest.test_case "pressure decays across windows" `Quick
      pressure_decays_across_windows;
    Alcotest.test_case "no leak across windows" `Quick no_leak_across_windows;
    Alcotest.test_case "one degradation per offending frame" `Quick
      blow_once_per_offending_frame;
    Alcotest.test_case "boundary charges open the new window" `Quick
      boundary_charges_open_new_window;
    qcheck inert_contention_is_invisible;
    qcheck active_contention_mode_independent;
    Alcotest.test_case "victim throttles within the curve" `Quick
      victim_throttles_within_curve;
    Alcotest.test_case "grammar round-trip" `Quick grammar_round_trip;
    Alcotest.test_case "grammar: empty curve and validation" `Quick
      grammar_empty_curve_and_errors ]
