(* Bechamel micro-benchmarks — one group per experiment of DESIGN.md §3
   that makes a performance claim:

   - scheduler/* (E4): AIR Partition Scheduler + Dispatcher tick cost; the
     paper argues the best (and most frequent) case performs only two
     computations and that mode-based schedules only add MTF-boundary work.
   - deadline/*  (E5): the PAL deadline-store ablation — AIR's sorted
     linked list against an AVL tree and a pairing heap, on the ISR path
     (earliest retrieval) and the APEX path (registration).
   - pal/*       (E5): Algorithm 3 end to end (announce + verify).
   - ipc/*       (E9): sampling and queuing transfers through the router.
   - mmu/*       (E10): page-table walk vs TLB-served access checks.
   - system/*    : a full prototype tick (all layers compounded).
   - faults/*    : campaign-engine costs — rate-plan expansion, the spatial
     and communication injection hooks, and a whole one-MTF campaign
     (target + baseline + oracle bookkeeping).
   - exec/*      : the skip-ahead executive against per-tick execution over
     whole horizons — sparse vs dense workloads, single vs multicore.
   - trace/*     : the packed event log — recording leo_satellite.air's
     event mix, and listing and digesting the trace one observation reads.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let satellite_schedules () =
  [ Air_workload.Satellite.schedule_1; Air_workload.Satellite.schedule_2 ]

(* --- scheduler (E4) ------------------------------------------------------ *)

let scheduler_tests =
  let tick_fresh () =
    let pmk = Air.Pmk.create ~partition_count:4 (satellite_schedules ()) in
    Staged.stage (fun () -> ignore (Air.Pmk.tick pmk))
  in
  let tick_with_pending_switch () =
    let pmk = Air.Pmk.create ~partition_count:4 (satellite_schedules ()) in
    let flip = ref false in
    Staged.stage (fun () ->
        ignore (Air.Pmk.tick pmk);
        if Air.Pmk.mtf_position pmk = 1299 then begin
          flip := not !flip;
          ignore
            (Air.Pmk.request_schedule_switch pmk
               (if !flip then Air_workload.Satellite.chi2
                else Air_workload.Satellite.chi1))
        end)
  in
  let tick_single_window () =
    (* Degenerate PST (one full-MTF window): every tick is the best case
       except one preemption point per MTF. *)
    let p0 = Air_model.Ident.Partition_id.make 0 in
    let s =
      Air_model.Schedule.make
        ~id:(Air_model.Ident.Schedule_id.make 0)
        ~name:"solo" ~mtf:1000
        ~requirements:
          [ { Air_model.Schedule.partition = p0; cycle = 1000; duration = 1000 } ]
        [ { Air_model.Schedule.partition = p0; offset = 0; duration = 1000 } ]
    in
    let pmk = Air.Pmk.create ~partition_count:1 [ s ] in
    Staged.stage (fun () -> ignore (Air.Pmk.tick pmk))
  in
  Test.make_grouped ~name:"scheduler"
    [ Test.make ~name:"tick(best case)" (tick_single_window ());
      Test.make ~name:"tick(fig8 tables)" (tick_fresh ());
      Test.make ~name:"tick(switch every MTF)" (tick_with_pending_switch ()) ]

(* --- deadline stores (E5) ------------------------------------------------ *)

let store_tests =
  let sizes = [ 8; 64; 256 ] in
  let with_store impl n f =
    let rng = Air_sim.Rng.create 42 in
    let store = Air.Deadline_store.create impl in
    for p = 0 to n - 1 do
      Air.Deadline_store.register store ~process:p
        (Air_sim.Rng.int rng 1_000_000)
    done;
    f store rng
  in
  (* Regression note: BENCH_5 showed `register(pairing-heap,n=8)` an order
     of magnitude slower than the other stores — this loop supersedes the
     same few processes over and over and never queries the minimum, so
     lazy deletion grew the heap without bound (hundreds of stale entries
     per live one at n=8). The store now compacts once garbage outnumbers
     live entries 2:1, which restores O(1) amortized registration; this
     row is the regression guard. *)
  let register impl n =
    with_store impl n (fun store rng ->
        let p = ref 0 in
        Staged.stage (fun () ->
            Air.Deadline_store.register store ~process:!p
              (Air_sim.Rng.int rng 1_000_000);
            p := (!p + 1) mod n))
  in
  let earliest impl n =
    with_store impl n (fun store _ ->
        Staged.stage (fun () -> ignore (Air.Deadline_store.earliest store)))
  in
  let churn impl n =
    with_store impl n (fun store _ ->
        Staged.stage (fun () ->
            match Air.Deadline_store.earliest store with
            | Some (proc, d) ->
              Air.Deadline_store.remove_earliest store;
              Air.Deadline_store.register store ~process:proc (d + 1009)
            | None -> ()))
  in
  let name op impl n =
    Format.asprintf "%s(%a,n=%d)" op Air.Deadline_store.pp_impl impl n
  in
  Test.make_grouped ~name:"deadline"
    (List.concat_map
       (fun impl ->
         List.concat_map
           (fun n ->
             [ Test.make ~name:(name "register" impl n) (register impl n);
               Test.make ~name:(name "earliest" impl n) (earliest impl n);
               Test.make ~name:(name "churn" impl n) (churn impl n) ])
           sizes)
       Air.Deadline_store.all_impls)

(* --- PAL (E5 / Algorithm 3) ---------------------------------------------- *)

let pal_tests =
  let announce_clean () =
    let pal =
      Air.Pal.create ~partition:(Air_model.Ident.Partition_id.make 0) ()
    in
    for p = 0 to 15 do
      Air.Pal.register_deadline pal ~process:p ((p * 1000) + 100_000_000)
    done;
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        ignore
          (Air.Pal.announce_ticks pal ~now:!now ~elapsed:1
             ~announce_to_pos:(fun ~now:_ ~elapsed:_ -> ())))
  in
  let announce_with_violation () =
    let pal =
      Air.Pal.create ~partition:(Air_model.Ident.Partition_id.make 0) ()
    in
    let now = ref 1_000 in
    Staged.stage (fun () ->
        incr now;
        (* One expired deadline per call: detect, remove, re-arm. *)
        Air.Pal.register_deadline pal ~process:0 (!now - 1);
        ignore
          (Air.Pal.announce_ticks pal ~now:!now ~elapsed:1
             ~announce_to_pos:(fun ~now:_ ~elapsed:_ -> ())))
  in
  Test.make_grouped ~name:"pal"
    [ Test.make ~name:"announce(no violation)" (announce_clean ());
      Test.make ~name:"announce(one violation)" (announce_with_violation ()) ]

(* --- IPC (E9) ------------------------------------------------------------- *)

let ipc_tests =
  let p0 = Air_model.Ident.Partition_id.make 0
  and p1 = Air_model.Ident.Partition_id.make 1 in
  let network =
    { Air_ipc.Port.ports =
        [ Air_ipc.Port.sampling_port ~name:"S_OUT" ~partition:p0
            ~direction:Air_ipc.Port.Source ~refresh:1000 ~max_message_size:64;
          Air_ipc.Port.sampling_port ~name:"S_IN" ~partition:p1
            ~direction:Air_ipc.Port.Destination ~refresh:1000
            ~max_message_size:64;
          Air_ipc.Port.queuing_port ~name:"Q_OUT" ~partition:p0
            ~direction:Air_ipc.Port.Source ~depth:64 ~max_message_size:64;
          Air_ipc.Port.queuing_port ~name:"Q_IN" ~partition:p1
            ~direction:Air_ipc.Port.Destination ~depth:64 ~max_message_size:64 ];
      channels =
        [ { Air_ipc.Port.source = "S_OUT"; destinations = [ "S_IN" ] };
          { Air_ipc.Port.source = "Q_OUT"; destinations = [ "Q_IN" ] } ] }
  in
  let sampling_roundtrip () =
    let r = Air_ipc.Router.create network in
    let msg = Bytes.make 32 'x' in
    Staged.stage (fun () ->
        ignore
          (Air_ipc.Router.write_sampling r ~caller:p0 ~port:"S_OUT" ~now:0 msg);
        ignore (Air_ipc.Router.read_sampling r ~caller:p1 ~port:"S_IN" ~now:1))
  in
  let queuing_roundtrip () =
    let r = Air_ipc.Router.create network in
    let msg = Bytes.make 32 'x' in
    Staged.stage (fun () ->
        ignore
          (Air_ipc.Router.send_queuing r ~caller:p0 ~port:"Q_OUT" ~now:0 msg);
        ignore
          (Air_ipc.Router.receive_queuing r ~caller:p1 ~port:"Q_IN" ~now:1))
  in
  Test.make_grouped ~name:"ipc"
    [ Test.make ~name:"sampling write+read (32B)" (sampling_roundtrip ());
      Test.make ~name:"queuing send+receive (32B)" (queuing_roundtrip ()) ]

(* --- MMU / TLB (E10) ------------------------------------------------------ *)

let mmu_tests =
  let p0 = Air_model.Ident.Partition_id.make 0 in
  let maps =
    Air_spatial.Memory.allocate
      [ (p0,
         [ { Air_spatial.Memory.req_section = Air_spatial.Memory.Data;
             req_size = 256 * 1024 } ]) ]
  in
  let base =
    match maps with
    | [ { Air_spatial.Memory.regions = r :: _; _ } ] ->
      r.Air_spatial.Memory.base
    | _ -> assert false
  in
  let walk () =
    let prot = Air_spatial.Protection.create maps in
    let mmu = Air_spatial.Protection.mmu prot in
    Staged.stage (fun () ->
        ignore
          (Air_spatial.Mmu.translate mmu ~context:1
             ~level:Air_spatial.Memory.Application
             ~access:Air_spatial.Mmu.Read (base + 0x2000)))
  in
  let tlb_hit () =
    let prot = Air_spatial.Protection.create maps in
    ignore
      (Air_spatial.Protection.access prot ~partition:p0
         ~level:Air_spatial.Memory.Application ~access:Air_spatial.Mmu.Read
         (base + 0x2000));
    Staged.stage (fun () ->
        ignore
          (Air_spatial.Protection.access prot ~partition:p0
             ~level:Air_spatial.Memory.Application
             ~access:Air_spatial.Mmu.Read (base + 0x2000)))
  in
  let fault () =
    let prot = Air_spatial.Protection.create maps in
    Staged.stage (fun () ->
        ignore
          (Air_spatial.Protection.access prot ~partition:p0
             ~level:Air_spatial.Memory.Application
             ~access:Air_spatial.Mmu.Read 0x7f00_0000))
  in
  Test.make_grouped ~name:"mmu"
    [ Test.make ~name:"page-table walk" (walk ());
      Test.make ~name:"tlb-served access" (tlb_hit ());
      Test.make ~name:"fault (unmapped)" (fault ()) ]

(* --- contention (shared-resource interference) ------------------------------ *)

let contention_tests =
  let model ~budget () =
    Air_spatial.Contention.create ~partitions:4 ~lanes:2
      (Air_spatial.Contention.config ~default_budget:budget
         ~curve:[ (0, 1); (500, 2) ] ~compute_cost:1 ())
  in
  (* The per-access hot path with nothing armed: one bounds check and two
     integer adds. This is what every memory touch pays once a module
     carries a contention model. *)
  let charge_within () =
    let c = model ~budget:1_000_000_000 () in
    Staged.stage (fun () ->
        ignore (Air_spatial.Contention.charge c ~partition:1 ~cost:2))
  in
  (* The armed path: two busy lanes over the aggregate budget, so every
     charge walks the curve and queues stall debt which the executive
     then consumes. *)
  let charge_throttled () =
    let c = model ~budget:8 () in
    Air_spatial.Contention.set_lane c 0;
    ignore (Air_spatial.Contention.charge c ~partition:0 ~cost:64);
    Air_spatial.Contention.set_lane c 1;
    ignore (Air_spatial.Contention.charge c ~partition:1 ~cost:64);
    Staged.stage (fun () ->
        ignore (Air_spatial.Contention.charge c ~partition:1 ~cost:1);
        if Air_spatial.Contention.stall_pending c ~partition:1 then
          Air_spatial.Contention.consume_stall c ~partition:1)
  in
  (* MTF-boundary window reset: account zeroing plus pressure decay. *)
  let window_rollover () =
    let c = model ~budget:1_000 () in
    Staged.stage (fun () -> Air_spatial.Contention.rollover c ~now:0)
  in
  (* Instrumentation overhead in situ: the full prototype tick with a
     generous contention model attached (every compute tick charges, no
     stalls), to be read against system/"prototype tick". *)
  let prototype_tick_contended () =
    let cfg =
      { (Air_workload.Satellite.config ()) with
        Air.System.contention =
          Some
            (Air_spatial.Contention.config ~default_budget:1_000_000_000
               ~compute_cost:1 ()) }
    in
    let s = Air.System.create cfg in
    Staged.stage (fun () -> Air.System.step s)
  in
  Test.make_grouped ~name:"contention"
    [ Test.make ~name:"charge (within budget)" (charge_within ());
      Test.make ~name:"charge + stall (curve armed)" (charge_throttled ());
      Test.make ~name:"window rollover" (window_rollover ());
      Test.make ~name:"prototype tick (charged)" (prototype_tick_contended ()) ]

(* --- analysis (E1/E11 tooling) --------------------------------------------- *)

let analysis_tests =
  let validate_fig8 () =
    Staged.stage (fun () ->
        ignore (Air_model.Validate.validate Air_workload.Satellite.schedule_1))
  in
  let synthesize_paper () =
    let requirements =
      Air_workload.Satellite.schedule_1.Air_model.Schedule.requirements
    in
    Staged.stage (fun () ->
        ignore (Air_analysis.Synthesis.synthesize requirements))
  in
  let rta_partition () =
    let specs =
      [| Air_model.Process.spec
           ~periodicity:(Air_model.Process.Periodic 1300)
           ~time_capacity:1300 ~wcet:70 ~base_priority:5 "attitude";
         Air_model.Process.spec
           ~periodicity:(Air_model.Process.Periodic 650) ~time_capacity:650
           ~wcet:30 ~base_priority:9 "aux" |]
    in
    Staged.stage (fun () ->
        ignore
          (Air_analysis.Rta.analyze Air_workload.Satellite.schedule_1
             Air_workload.Satellite.p1 specs))
  in
  let sbf_sweep () =
    Staged.stage (fun () ->
        ignore
          (Air_analysis.Supply.sbf Air_workload.Satellite.schedule_1
             Air_workload.Satellite.p2 1300))
  in
  Test.make_grouped ~name:"analysis"
    [ Test.make ~name:"validate fig8 table" (validate_fig8 ());
      Test.make ~name:"synthesize paper requirements" (synthesize_paper ());
      Test.make ~name:"rta (2-process partition)" (rta_partition ());
      Test.make ~name:"sbf (delta = MTF)" (sbf_sweep ()) ]

(* --- full system ----------------------------------------------------------- *)

let system_tests =
  let prototype_tick () =
    let s = Air_workload.Satellite.make () in
    Staged.stage (fun () -> Air.System.step s)
  in
  let prototype_tick_faulty () =
    let s = Air_workload.Satellite.make () in
    Air.System.run s ~ticks:1;
    Air_workload.Satellite.inject_fault s;
    Staged.stage (fun () -> Air.System.step s)
  in
  Test.make_grouped ~name:"system"
    [ Test.make ~name:"prototype tick" (prototype_tick ());
      Test.make ~name:"prototype tick (fault active)" (prototype_tick_faulty ()) ]

(* --- flight recorder -------------------------------------------------------- *)

let recorder_tests =
  (* Raw recording cost: one begin/end pair and one instant, on a bounded
     recorder so the ring never grows. *)
  let span_pair () =
    let r = Air_obs.Span.create ~capacity:4096 () in
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        Air_obs.Span.begin_span r ~now:!now ~track:0 "w";
        Air_obs.Span.end_span r ~now:(!now + 1) ~track:0)
  in
  let span_instant () =
    let r = Air_obs.Span.create ~capacity:4096 () in
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        Air_obs.Span.instant r ~now:!now ~track:0 "i")
  in
  (* Instrumentation overhead in situ: the scheduler/dispatcher tick and
     the full prototype tick with a recorder attached, to be read against
     the scheduler/* and system/"prototype tick" baselines. *)
  let pmk_tick_recorded () =
    let pmk =
      Air.Pmk.create
        ~recorder:(Air_obs.Span.create ~capacity:4096 ())
        ~partition_count:4 (satellite_schedules ())
    in
    Staged.stage (fun () -> ignore (Air.Pmk.tick pmk))
  in
  let prototype_tick_recorded () =
    let cfg =
      { (Air_workload.Satellite.config ()) with
        Air.System.recorder = Some (Air_obs.Span.create ~capacity:4096 ()) }
    in
    let s = Air.System.create cfg in
    Staged.stage (fun () -> Air.System.step s)
  in
  Test.make_grouped ~name:"recorder"
    [ Test.make ~name:"span begin+end" (span_pair ());
      Test.make ~name:"span instant" (span_instant ());
      Test.make ~name:"pmk tick (recorded)" (pmk_tick_recorded ());
      Test.make ~name:"prototype tick (recorded)" (prototype_tick_recorded ()) ]

(* --- telemetry --------------------------------------------------------------- *)

let telemetry_tests =
  (* Raw hot-path hook costs: one histogram record, and one tick
     accounted into the frame accumulator. *)
  let quantile_record () =
    let h = Air_obs.Quantile.create () in
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        Air_obs.Quantile.record h (!now land 1023))
  in
  let accumulator_tick () =
    let t = Air_obs.Telemetry.create ~partition_count:4 () in
    Air_obs.Telemetry.prime t ~schedule:0 ~allotted:[| 650; 650; 650; 650 |];
    Staged.stage (fun () -> Air_obs.Telemetry.on_tick t ~active:1)
  in
  (* Frame-close cost (snapshot + ring push) on a bounded ring. *)
  let frame_close () =
    let t =
      Air_obs.Telemetry.create
        ~config:(Air_obs.Telemetry.config ~retention:64 ())
        ~partition_count:4 ()
    in
    Air_obs.Telemetry.prime t ~schedule:0 ~allotted:[| 650; 650; 650; 650 |];
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        Air_obs.Telemetry.on_tick t ~active:0;
        ignore
          (Air_obs.Telemetry.close_frame t ~now:!now ~next_schedule:0
             ~next_allotted:[| 650; 650; 650; 650 |]))
  in
  (* Instrumentation overhead in situ, to be read against the scheduler/*
     and system/"prototype tick" baselines (and the recorder/* rows).
     The pmk row prices frame close and the dispatch-jitter sample only:
     the per-tick busy/idle occupancy sample belongs to the executive
     (System.step), so it is in the prototype row, not here. *)
  let pmk_tick_telemetry () =
    let tel = Air_obs.Telemetry.create ~partition_count:4 () in
    let pmk =
      Air.Pmk.create ~telemetry:tel ~partition_count:4
        (satellite_schedules ())
    in
    Staged.stage (fun () -> ignore (Air.Pmk.tick pmk))
  in
  let prototype_tick_telemetry () =
    let cfg =
      { (Air_workload.Satellite.config ()) with
        Air.System.telemetry =
          Some (Air_obs.Telemetry.config ~retention:64 ()) }
    in
    let s = Air.System.create cfg in
    Staged.stage (fun () -> Air.System.step s)
  in
  Test.make_grouped ~name:"telemetry"
    [ Test.make ~name:"quantile record" (quantile_record ());
      Test.make ~name:"accumulator tick" (accumulator_tick ());
      Test.make ~name:"frame close (4 partitions)" (frame_close ());
      Test.make ~name:"pmk tick (telemetry)" (pmk_tick_telemetry ());
      Test.make ~name:"prototype tick (telemetry)"
        (prototype_tick_telemetry ()) ]

(* --- fault-injection campaigns ----------------------------------------------- *)

let faults_tests =
  (* Plan expansion: two explicit injections plus two per-MTF rates over a
     15-MTF horizon — all the randomness a campaign ever spends. *)
  let plan_expansion () =
    let spec =
      Air_faults.Campaign.spec ~name:"bench" ~seed:7 ~horizon:20_000
        ~injections:
          [ { Air_faults.Campaign.at = 300;
              fault =
                Air_faults.Fault.Wild_access
                  { partition = 0; section = Air_spatial.Memory.Data;
                    offset = 64; write = true } };
            { Air_faults.Campaign.at = 2_500;
              fault =
                Air_faults.Fault.Clock_jitter { partition = 1; ticks = 40 } } ]
        ~rates:
          [ { Air_faults.Campaign.per_mtf_permille = 400;
              template =
                Air_faults.Fault.Port_fault
                  { port = "ATT_IN"; fault = Air_faults.Fault.Msg_loss } };
            { Air_faults.Campaign.per_mtf_permille = 250;
              template =
                Air_faults.Fault.Port_fault
                  { port = "TM_IN"; fault = Air_faults.Fault.Msg_duplicate } } ]
        ()
    in
    Staged.stage (fun () -> ignore (Air_faults.Campaign.plan spec ~mtf:1300))
  in
  (* The spatial hook end to end: a denied access pays the 3-level walk,
     the Memory_violation raise and the configured HM recovery action. *)
  let wild_access_hook () =
    let s = Air_workload.Satellite.make () in
    Air.System.run s ~ticks:1;
    Staged.stage (fun () ->
        ignore
          (Air.System.inject_memory_access s Air_workload.Satellite.p1
             ~access:Air_spatial.Mmu.Write ~address:0x7f00_0000))
  in
  (* The communication hook: refill a sampling channel and strike it. *)
  let port_perturb () =
    let p0 = Air_model.Ident.Partition_id.make 0
    and p1 = Air_model.Ident.Partition_id.make 1 in
    let network =
      { Air_ipc.Port.ports =
          [ Air_ipc.Port.sampling_port ~name:"S_OUT" ~partition:p0
              ~direction:Air_ipc.Port.Source ~refresh:1000
              ~max_message_size:64;
            Air_ipc.Port.sampling_port ~name:"S_IN" ~partition:p1
              ~direction:Air_ipc.Port.Destination ~refresh:1000
              ~max_message_size:64 ];
        channels =
          [ { Air_ipc.Port.source = "S_OUT"; destinations = [ "S_IN" ] } ] }
    in
    let r = Air_ipc.Router.create network in
    let msg = Bytes.make 32 'x' in
    Staged.stage (fun () ->
        ignore
          (Air_ipc.Router.write_sampling r ~caller:p0 ~port:"S_OUT" ~now:0 msg);
        ignore (Air_ipc.Router.drop_head r ~port:"S_IN" ~now:1))
  in
  (* A whole seeded campaign over one MTF: fresh target + baseline, plan,
     tick-by-tick execution and outcome matching. *)
  let campaign_one_mtf () =
    let spec =
      Air_faults.Campaign.spec ~name:"bench-mtf" ~seed:3 ~horizon:1300
        ~injections:
          [ { Air_faults.Campaign.at = 100;
              fault =
                Air_faults.Fault.Runaway_start
                  { partition = 0;
                    process = Air_workload.Satellite.faulty_process_name } } ]
        ()
    in
    let make () = Air_faults.Engine.Module (Air_workload.Satellite.make ()) in
    Staged.stage (fun () -> ignore (Air_faults.Engine.execute ~make spec))
  in
  Test.make_grouped ~name:"faults"
    [ Test.make ~name:"plan (2 inj + 2 rates, 15 MTF)" (plan_expansion ());
      Test.make ~name:"wild access (inject+detect+recover)"
        (wild_access_hook ());
      Test.make ~name:"port perturb (write+drop)" (port_perturb ());
      Test.make ~name:"campaign execute (1 MTF)" (campaign_one_mtf ()) ]

(* --- multicore + cluster ----------------------------------------------------- *)

let extension_tests =
  let pmk_mc_tick () =
    let pid = Air_model.Ident.Partition_id.make in
    let sid = Air_model.Ident.Schedule_id.make in
    let w partition offset duration =
      { Air_model.Schedule.partition; offset; duration }
    in
    let q partition cycle duration =
      { Air_model.Schedule.partition; cycle; duration }
    in
    let table =
      Air_model.Multicore.make ~id:(sid 0) ~name:"dual" ~mtf:1000
        ~requirements:[ q (pid 0) 1000 1000; q (pid 1) 1000 1000 ]
        [ [ w (pid 0) 0 1000 ]; [ w (pid 1) 0 1000 ] ]
    in
    let pmk = Air.Pmk_mc.create ~partition_count:2 [ table ] in
    Staged.stage (fun () -> ignore (Air.Pmk_mc.tick pmk))
  in
  let cluster_tick () =
    (* Two single-partition modules exchanging one frame per 100 ticks. *)
    let pid = Air_model.Ident.Partition_id.make in
    let sid = Air_model.Ident.Schedule_id.make in
    let mk_module name ports channels scripts specs =
      let p = Air_model.Partition.make ~id:(pid 0) ~name specs in
      let schedule =
        Air_model.Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:100
          ~requirements:
            [ { Air_model.Schedule.partition = pid 0; cycle = 100;
                duration = 100 } ]
          [ { Air_model.Schedule.partition = pid 0; offset = 0;
              duration = 100 } ]
      in
      Air.System.create
        (Air.System.config
           ~network:{ Air_ipc.Port.ports; channels }
           ~partitions:[ Air.System.partition_setup p scripts ]
           ~schedules:[ schedule ] ())
    in
    let sender =
      mk_module "TX"
        [ Air_ipc.Port.queuing_port ~name:"SRC" ~partition:(pid 0)
            ~direction:Air_ipc.Port.Source ~depth:8 ~max_message_size:32;
          Air_ipc.Port.queuing_port ~name:"GW" ~partition:(pid 0)
            ~direction:Air_ipc.Port.Destination ~depth:8 ~max_message_size:32 ]
        [ { Air_ipc.Port.source = "SRC"; destinations = [ "GW" ] } ]
        [ Air_pos.Script.periodic_body
            [ Air_pos.Script.Compute 2;
              Air_pos.Script.Send_queuing ("SRC", "x") ] ]
        [ Air_model.Process.spec
            ~periodicity:(Air_model.Process.Periodic 100) ~time_capacity:100
            ~wcet:2 ~base_priority:5 "tx" ]
    in
    let receiver =
      mk_module "RX"
        [ Air_ipc.Port.queuing_port ~name:"IN" ~partition:(pid 0)
            ~direction:Air_ipc.Port.Destination ~depth:8 ~max_message_size:32 ]
        []
        [ Air_pos.Script.make
            [ Air_pos.Script.Receive_queuing ("IN", Air_sim.Time.infinity) ] ]
        [ Air_model.Process.spec ~base_priority:5 "rx" ]
    in
    let cluster =
      Air.Cluster.create
        ~links:
          [ Air.Cluster.link ~from_module:0 ~from_port:"GW" ~to_module:1
              ~to_port:"IN" () ]
        [ sender; receiver ]
    in
    Staged.stage (fun () -> Air.Cluster.step cluster)
  in
  Test.make_grouped ~name:"extensions"
    [ Test.make ~name:"pmk_mc tick (2 cores)" (pmk_mc_tick ());
      Test.make ~name:"cluster tick (2 modules + bus)" (cluster_tick ()) ]

(* --- exec: per-tick vs skip-ahead ---------------------------------------- *)

(* Whole-horizon runs (creation + advance) under both executives. The
   beacon workload (one partition, full-MTF window, a 1%-duty periodic
   process — idle almost the whole horizon) is where skip-ahead collapses
   quiet spans and wins by the idle fraction; the Taskgen rows show the
   gain shrinking as window edges and utilization cut the spans short
   (10%: short windows bound every span; 90%: almost nothing to skip);
   the multicore rows compound the executive with two Pmk_mc lanes over
   the Fig. 8 tables. *)
let causal_tests =
  (* Raw correlation-id cost on a bounded tracker: one stamp, and a full
     send→forward→receive hop chain, the ring wrapping in place. *)
  let stamp () =
    let t = Air_obs.Causal.create ~capacity:4096 () in
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        ignore (Air_obs.Causal.stamp t ~now:!now ~partition:1 ~port:2))
  in
  let full_hop () =
    let t = Air_obs.Causal.create ~capacity:4096 () in
    let now = ref 0 in
    Staged.stage (fun () ->
        incr now;
        let id = Air_obs.Causal.stamp t ~now:!now ~partition:1 ~port:2 in
        Air_obs.Causal.forward t ~now:!now id;
        Air_obs.Causal.receive t ~now:!now ~track:1 id)
  in
  (* Stamping in situ: the full prototype tick with a flow tracker
     attached, to be read against system/"prototype tick". *)
  let prototype_tick_tracked () =
    let cfg =
      { (Air_workload.Satellite.config ()) with
        Air.System.causal = Some (Air_obs.Causal.create ~capacity:4096 ()) }
    in
    let s = Air.System.create cfg in
    Staged.stage (fun () -> Air.System.step s)
  in
  Test.make_grouped ~name:"causal"
    [ Test.make ~name:"stamp" (stamp ());
      Test.make ~name:"stamp+forward+receive" (full_hop ());
      Test.make ~name:"prototype tick (tracked)" (prototype_tick_tracked ()) ]

let profiler_tests =
  (* The profiler must be observational in cost too: the Fig. 8 prototype
     advanced 10 MTFs under the adaptive executive with and without one
     attached, plus the raw per-note cost. *)
  let advance ~profiled () =
    let config = Air_workload.Satellite.config () in
    Staged.stage (fun () ->
        let profiler =
          if profiled then Some (Air_exec.Profiler.create ()) else None
        in
        let engine =
          Air_exec.Engine.create ?profiler (Air.System.create config)
        in
        Air_exec.Engine.advance engine ~ticks:(10 * 1300))
  in
  let note () =
    let p = Air_exec.Profiler.create () in
    Staged.stage (fun () ->
        Air_exec.Profiler.note_batch p ~ticks:16 ~seconds:1e-6)
  in
  Test.make_grouped ~name:"profiler"
    [ Test.make ~name:"adaptive 10 MTFs (unprofiled)"
        (advance ~profiled:false ());
      Test.make ~name:"adaptive 10 MTFs (profiled)"
        (advance ~profiled:true ());
      Test.make ~name:"note_batch" (note ()) ]

(* The shipped leo_satellite.air, resolved from the directory holding
   dune-project so a row measures the same workload wherever the benchmark
   is started below the repository root. *)
let leo_config group =
  let rec root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then
        failwith (group ^ "/leo_satellite: no dune-project above the cwd")
      else root parent
  in
  let path =
    List.fold_left Filename.concat (root (Sys.getcwd ()))
      [ "examples"; "configs"; "leo_satellite.air" ]
  in
  match Air_config.Loader.load_file path with
  | Ok config -> config
  | Error e -> failwith (group ^ "/leo_satellite: " ^ e)

let exec_tests =
  (* One process owning the whole MTF. *)
  let solo_config ~mtf spec script =
    let pid = Air_model.Ident.Partition_id.make 0 in
    let p = Air_model.Partition.make ~id:pid ~name:"BCN" [ spec ] in
    let schedule =
      Air_model.Schedule.make
        ~id:(Air_model.Ident.Schedule_id.make 0)
        ~name:"solo" ~mtf
        ~requirements:
          [ { Air_model.Schedule.partition = pid; cycle = mtf; duration = mtf } ]
        [ { Air_model.Schedule.partition = pid; offset = 0; duration = mtf } ]
    in
    Air.System.config
      ~partitions:[ Air.System.partition_setup p [ script ] ]
      ~schedules:[ schedule ] ()
  in
  let beacon_config ~mtf ~work =
    solo_config ~mtf
      (Air_model.Process.spec ~periodicity:(Air_model.Process.Periodic mtf)
         ~time_capacity:mtf ~wcet:(work + 1) ~base_priority:5 "beacon")
      (Air_pos.Script.periodic_body [ Air_pos.Script.Compute work ])
  in
  let taskgen_config ~utilization seed =
    let rng = Air_sim.Rng.create seed in
    let gen =
      Air_workload.Taskgen.generate rng ~n_partitions:3 ~procs_per_partition:2
        ~utilization
    in
    let schedule =
      match
        Air_analysis.Synthesis.synthesize gen.Air_workload.Taskgen.requirements
      with
      | Ok s -> s
      | Error f ->
        Format.kasprintf failwith "synthesis: %a"
          Air_analysis.Synthesis.pp_failure f
    in
    ( Air.System.config
        ~partitions:
          (List.map
             (fun (p, scripts) -> Air.System.partition_setup p scripts)
             gen.Air_workload.Taskgen.partitions)
        ~schedules:[ schedule ] (),
      schedule.Air_model.Schedule.mtf )
  in
  let advance ~mode config ~ticks =
    Staged.stage (fun () ->
        let engine =
          Air_exec.Engine.create ~mode (Air.System.create config)
        in
        Air_exec.Engine.advance engine ~ticks)
  in
  (* Each workload is measured under both strategies: the BENCH_5
     regression was a probe of [Clock.next_interesting] per executed tick
     on dense workloads; the adaptive default must sit within noise of
     per-tick there while keeping the skip-ahead win on the sparse
     rows. *)
  let modes name config ticks =
    [ Test.make
        ~name:(Printf.sprintf "per-tick (%s)" name)
        (advance ~mode:Air_exec.Engine.Per_tick config ~ticks);
      Test.make
        ~name:(Printf.sprintf "adaptive (%s)" name)
        (advance ~mode:Air_exec.Engine.Adaptive config ~ticks) ]
  in
  let beacon = beacon_config ~mtf:10_000 ~work:50 in
  (* Full duty as one long compute per frame: the beacon computes on all
     but one tick of each frame, but only the release and the tick that
     ends the compute are events, so skip-ahead collapses the rest. *)
  let dense_beacon = beacon_config ~mtf:10_000 ~work:9_999 in
  (* Truly dense: the process ends a compute, and so runs its script on,
     every tick; no span is ever skippable and any skip-ahead overhead is
     pure loss. *)
  let every_tick =
    solo_config ~mtf:10_000
      (Air_model.Process.spec ~base_priority:5 "spin")
      { Air_pos.Script.body = [| Air_pos.Script.Compute 1 |];
        on_end = Air_pos.Script.Repeat }
  in
  let sparse, sparse_mtf = taskgen_config ~utilization:0.1 7 in
  let dense, dense_mtf = taskgen_config ~utilization:0.9 7 in
  let leo = leo_config "exec" in
  let fig8 =
    { (Air_workload.Satellite.config ()) with Air.System.cores = Some 2 }
  in
  let beacon_ticks = 10 * 10_000
  and sparse_ticks = 10 * sparse_mtf
  and dense_ticks = 10 * dense_mtf
  and leo_ticks = 10 * 2000
  and fig8_ticks = 10 * 1300 in
  Test.make_grouped ~name:"exec"
    (modes "beacon 1% duty, 10 MTFs" beacon beacon_ticks
    @ modes "beacon 100% duty, 10 MTFs" dense_beacon beacon_ticks
    @ modes "compute ends every tick, 10 MTFs" every_tick beacon_ticks
    @ modes "taskgen 10%, 10 MTFs" sparse sparse_ticks
    @ modes "taskgen 90%, 10 MTFs" dense dense_ticks
    @ modes "leo_satellite, 10 MTFs" leo leo_ticks
    @ modes "fig8, 2 cores, 10 MTFs" fig8 fig8_ticks)

(* --- fleet/* : parallel constellation engine ------------------------------- *)

let fleet_tests =
  (* A 256-satellite LEO ring: every module is a 1%-duty beacon pushing
     one ISL frame per 100-tick MTF through its TX0 gateway into the next
     satellite's RX. The sequential row is [Cluster.run]; the fleet rows
     advance an equivalent constellation through the conservative
     windowed engine at increasing domain counts (bit-identical
     observables, see DESIGN.md §10). The fleets stay open across
     measured runs, so the rows price steady-state windows — lookahead
     segmentation, mailbox buffering, barrier merge — not domain
     spawning. On a single hardware core the domain rows can only show
     the protocol overhead; the speedup claim needs real parallelism. *)
  let satellites = 256 in
  let isl_latency = 8 in
  let satellite index =
    let sat = Air_model.Ident.Partition_id.make 0 in
    let network =
      { Air_ipc.Port.ports =
          [ Air_ipc.Port.queuing_port ~name:"ISL_SRC" ~partition:sat
              ~direction:Air_ipc.Port.Source ~depth:8 ~max_message_size:64;
            Air_ipc.Port.queuing_port ~name:"TX0" ~partition:sat
              ~direction:Air_ipc.Port.Destination ~depth:8
              ~max_message_size:64;
            Air_ipc.Port.queuing_port ~name:"RX" ~partition:sat
              ~direction:Air_ipc.Port.Destination ~depth:16
              ~max_message_size:64 ];
        channels =
          [ { Air_ipc.Port.source = "ISL_SRC"; destinations = [ "TX0" ] } ] }
    in
    let partition =
      Air_model.Partition.make ~id:sat ~name:"SAT"
        [ Air_model.Process.spec ~periodicity:(Air_model.Process.Periodic 100)
            ~time_capacity:100 ~wcet:2 ~base_priority:5 "beacon";
          Air_model.Process.spec ~base_priority:4 "uplink" ]
    in
    let schedule =
      Air_model.Schedule.make
        ~id:(Air_model.Ident.Schedule_id.make 0)
        ~name:"solo" ~mtf:100
        ~requirements:
          [ { Air_model.Schedule.partition = sat; cycle = 100; duration = 100 } ]
        [ { Air_model.Schedule.partition = sat; offset = 0; duration = 100 } ]
    in
    Air.System.create
      (Air.System.config ~network
         ~partitions:
           [ Air.System.partition_setup partition
               [ Air_pos.Script.periodic_body
                   [ Air_pos.Script.Compute 1;
                     Air_pos.Script.Send_queuing
                       ("ISL_SRC", Printf.sprintf "isl-frame-%d" index) ];
                 Air_pos.Script.make
                   [ Air_pos.Script.Receive_queuing ("RX", Air_sim.Time.infinity) ] ] ]
         ~schedules:[ schedule ] ())
  in
  let make_constellation () =
    Air.Cluster.create
      ~bus:{ Air.Cluster.latency = isl_latency; bytes_per_tick = 64 }
      ~links:
        (Air_fleet.Topology.links ~latency:isl_latency ~gateway:"TX"
           ~ingress:"RX" Air_fleet.Topology.Ring ~n:satellites)
      (List.init satellites satellite)
  in
  let ticks = 1_000 in
  (* Built lazily on the row's first measured run: staging-time
     construction would leave four 256-module constellations resident on
     the heap for the whole harness, inflating GC costs in every earlier
     group's nanosecond-scale rows. *)
  let sequential () =
    let cluster = lazy (make_constellation ()) in
    Staged.stage (fun () -> Air.Cluster.run (Lazy.force cluster) ~ticks)
  in
  let fleet domains () =
    let fleet =
      lazy (Air_fleet.Fleet.create ~domains (make_constellation ()))
    in
    Staged.stage (fun () -> Air_fleet.Fleet.run (Lazy.force fleet) ~ticks)
  in
  Test.make_grouped ~name:"fleet"
    [ Test.make ~name:"ring 256, sequential, 10 MTFs" (sequential ());
      Test.make ~name:"ring 256, 1 domain, 10 MTFs" (fleet 1 ());
      Test.make ~name:"ring 256, 2 domains, 10 MTFs" (fleet 2 ());
      Test.make ~name:"ring 256, 4 domains, 10 MTFs" (fleet 4 ()) ]

(* --- trace/* : the packed event log ------------------------------------------ *)

let trace_tests =
  (* leo_satellite.air after 10 MTFs: 612 events, the trace one
     observation digests and one campaign lists. *)
  let leo_trace () =
    let sys = Air.System.create (leo_config "trace") in
    Air_exec.Engine.advance (Air_exec.Engine.create sys) ~ticks:20_000;
    Air.System.trace sys
  in
  (* That event mix, replayed with rising times into a bounded ring two
     laps warm, so no chunk is allocated while measuring. *)
  let record () =
    let mix = Array.of_list (Air_sim.Trace.to_list (leo_trace ())) in
    let ring =
      Air_sim.Trace.create ~codec:Air_model.Event.codec ~capacity:4096 ()
    in
    let next = ref 0 and lap = ref 0 in
    let record () =
      let time, ev = mix.(!next) in
      Air_sim.Trace.record ring (!lap + time) ev;
      incr next;
      if !next = Array.length mix then begin
        next := 0;
        lap := !lap + 20_000
      end
    in
    for _ = 1 to 2 * 4096 do
      record ()
    done;
    Staged.stage record
  in
  let read f =
    let trace = leo_trace () in
    Staged.stage (fun () -> ignore (Sys.opaque_identity (f trace)))
  in
  Test.make_grouped ~name:"trace"
    [ Test.make ~name:"record" (record ());
      Test.make ~name:"to_list" (read Air_sim.Trace.to_list);
      Test.make ~name:"digest" (read Air_sim.Trace.digest) ]

(* --- harness ---------------------------------------------------------------- *)

let benchmark ~quota ~dry_run tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if dry_run then
      (* Smoke mode for `make check`: a handful of runs per test, enough to
         prove every benchmark body executes and the export pipeline works;
         the estimates are not meaningful. *)
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~stabilize:false
        ~kde:None ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true
        ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* (name, OLS ns-per-run estimate) rows of the monotonic-clock measure. *)
let collect_rows results =
  let rows = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then
        Hashtbl.iter
          (fun name ols ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> e
              | Some [] | None -> nan
            in
            rows := (name, estimate) :: !rows)
          per_test)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let print_rows rows =
  List.iter
    (fun (name, est) -> Format.printf "%-52s %12.1f ns/run@." name est)
    rows

let export_json ~path ~quota ~dry_run rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"air-bench/1\",\n";
  Buffer.add_string b "  \"unit\": \"ns/run\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"quota_s\": %s,\n"
       (if dry_run then "0.01" else Printf.sprintf "%g" quota));
  Buffer.add_string b
    (Printf.sprintf "  \"dry_run\": %b,\n  \"results\": [\n" dry_run);
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
           (Air_obs.Report.json_escape name)
           (* NaN is not valid JSON; an estimate the OLS could not produce
              exports as null. *)
           (if Float.is_nan est then "null" else Printf.sprintf "%.3f" est)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents b))

let () =
  let json_path = ref None in
  let quota = ref 0.5 in
  let dry_run = ref false in
  Arg.parse
    [ ("--json", Arg.String (fun p -> json_path := Some p),
       "FILE  export results as JSON to FILE");
      ("--quota", Arg.Set_float quota,
       "SECONDS  sampling quota per test (default 0.5)");
      ("--dry-run", Arg.Set dry_run,
       "  smoke mode: a few runs per test, meaningless estimates") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "main.exe [--json FILE] [--quota SECONDS] [--dry-run]";
  let groups =
    [ scheduler_tests; store_tests; pal_tests; ipc_tests; mmu_tests;
      contention_tests; analysis_tests; system_tests; recorder_tests;
      telemetry_tests; faults_tests; extension_tests; exec_tests;
      causal_tests; profiler_tests; fleet_tests; trace_tests ]
  in
  let all_rows =
    List.concat_map
      (fun tests ->
        Format.printf "@.-- %s --@." (Test.name tests);
        let rows =
          collect_rows (benchmark ~quota:!quota ~dry_run:!dry_run tests)
        in
        print_rows rows;
        rows)
      groups
  in
  match !json_path with
  | None -> ()
  | Some path ->
    export_json ~path ~quota:!quota ~dry_run:!dry_run all_rows;
    Format.printf "@.results exported to %s (%d benchmarks)@." path
      (List.length all_rows)
