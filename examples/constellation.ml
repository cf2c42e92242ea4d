(* A 12-satellite LEO constellation as one parallel discrete-event
   simulation (paper Sect. 2.1 scaled up: many physically separated AIR
   modules over inter-satellite links).

   Each satellite is the same module — a beacon partition pushing ISL
   frames through its TX0 gateway, an uplink process draining the RX
   ingress — and the ring wiring comes from the topology generator. The
   constellation is advanced two ways:

   - sequentially, module by module, through [Air.Cluster.run];
   - in parallel across OCaml domains through [Air_fleet.Fleet], whose
     conservative windows (each ending one minimum ISL latency after the
     earliest tick any satellite could send) and deterministic barrier
     merge make the parallel run bit-identical to the sequential one —
     same traces, counters and fingerprint.

   The same holds under fault injection: a seeded campaign striking the
   ISL bus reaches the same verdicts whatever the domain count.

   Run with: dune exec examples/constellation.exe *)

open Air_model
open Air_pos
open Air
open Ident
module Fleet = Air_fleet.Fleet
module Topology = Air_fleet.Topology

let pid = Partition_id.make
let sid = Schedule_id.make
let satellites = 12
let isl_latency = 8

(* One satellite: clone [index] of the template. *)
let satellite index =
  let sat = pid 0 in
  let network =
    { Air_ipc.Port.ports =
        [ Air_ipc.Port.queuing_port ~name:"ISL_SRC" ~partition:sat
            ~direction:Air_ipc.Port.Source ~depth:8 ~max_message_size:64;
          Air_ipc.Port.queuing_port ~name:"TX0" ~partition:sat
            ~direction:Air_ipc.Port.Destination ~depth:8 ~max_message_size:64;
          Air_ipc.Port.queuing_port ~name:"RX" ~partition:sat
            ~direction:Air_ipc.Port.Destination ~depth:16 ~max_message_size:64 ];
      channels =
        [ { Air_ipc.Port.source = "ISL_SRC"; destinations = [ "TX0" ] } ] }
  in
  let partition =
    Partition.make ~id:sat ~name:"SAT"
      [ Process.spec ~periodicity:(Process.Periodic 100) ~time_capacity:100
          ~wcet:6 ~base_priority:5 "beacon";
        Process.spec ~base_priority:4 "uplink" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:100
      ~requirements:[ { Schedule.partition = sat; cycle = 100; duration = 100 } ]
      [ { Schedule.partition = sat; offset = 0; duration = 100 } ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup partition
             [ Script.periodic_body
                 [ Script.Compute 6;
                   Script.Send_queuing
                     ("ISL_SRC", Printf.sprintf "isl-frame-%d" index) ];
               Script.make
                 [ Script.Receive_queuing ("RX", Air_sim.Time.infinity);
                   Script.Log "isl frame received" ] ] ]
       ~schedules:[ schedule ] ())

let make_constellation () =
  Cluster.create
    ~bus:{ Cluster.latency = isl_latency; bytes_per_tick = 16 }
    ~links:
      (Topology.links ~latency:isl_latency ~gateway:"TX" ~ingress:"RX"
         Topology.Ring ~n:satellites)
    (List.init satellites satellite)

let ticks = 5_000

let () =
  (* Sequential reference run. *)
  let reference = make_constellation () in
  Cluster.run reference ~ticks;
  let ref_stats = Cluster.stats reference in
  Format.printf "sequential: %d ticks, %d ISL frames transferred, %d dropped@."
    ticks ref_stats.Cluster.transferred ref_stats.Cluster.dropped;
  let ref_fp = Fleet.fingerprint reference in
  (* The same constellation across 4 domains. *)
  let cluster = make_constellation () in
  let fleet = Fleet.create ~domains:4 cluster in
  Fleet.run fleet ~ticks;
  Fleet.close fleet;
  print_string (Air_obs.Fleet_stats.to_text (Fleet.stats fleet));
  let fleet_fp = Fleet.fingerprint cluster in
  Format.printf "fingerprints: sequential %s / fleet %s -> %s@." ref_fp
    fleet_fp
    (if String.equal ref_fp fleet_fp then "bit-identical"
     else "DIVERGED (bug!)");
  (* A seeded campaign striking the ISL bus: delay, loss, duplication.
     The verdict and engine fingerprint are domain-count independent. *)
  let spec =
    Air_faults.Campaign.spec ~seed:11 ~horizon:4_000
      ~injections:
        [ { Air_faults.Campaign.at = 610;
            fault =
              Air_faults.Fault.Link_fault
                { fault = Air_faults.Fault.Msg_delay { ticks = 120 } } };
          { at = 1_510;
            fault = Air_faults.Fault.Link_fault { fault = Air_faults.Fault.Msg_loss } };
          { at = 2_310;
            fault =
              Air_faults.Fault.Link_fault
                { fault = Air_faults.Fault.Msg_duplicate } } ]
      ()
  in
  let sequential_run =
    Air_faults.Engine.execute
      ~make:(fun () -> Air_faults.Engine.cluster (make_constellation ()))
      spec
  in
  let fleet_run =
    Fleet.execute_campaign ~domains:3 ~make:make_constellation spec
  in
  Format.printf "campaign: %d injections, fleet fingerprint %s -> %s@."
    (List.length fleet_run.Air_faults.Engine.outcomes)
    fleet_run.Air_faults.Engine.fingerprint
    (if
       String.equal sequential_run.Air_faults.Engine.fingerprint
         fleet_run.Air_faults.Engine.fingerprint
     then "matches the sequential campaign"
     else "DIVERGED (bug!)");
  List.iter
    (fun (o : Air_faults.Engine.outcome) ->
      Format.printf "  [%d] %a: %a@." o.Air_faults.Engine.at
        Air_faults.Fault.pp o.Air_faults.Engine.fault
        Air_faults.Engine.pp_applied o.Air_faults.Engine.applied)
    fleet_run.Air_faults.Engine.outcomes