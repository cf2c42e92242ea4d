(* Tests for the parallel fleet engine: conservative windowed execution of
   a constellation across domains must be bit-identical to the sequential
   Cluster.run — same observations (Air.Observe: the bus and every
   module's state, trace, telemetry, flows, spans and metrics), same
   fault-campaign verdicts — for any domain count, any
   topology and any window chunking. Also a forwarding relay: a message
   parked in a forwarding gateway must be re-drained across windows. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air
open Ident
module Fleet = Air_fleet.Fleet
module Topology = Air_fleet.Topology
module Stats = Air_obs.Fleet_stats
module F = Air_faults.Fault
module C = Air_faults.Campaign
module E = Air_faults.Engine

let check = Alcotest.check
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* --- Constellation builders ----------------------------------------------- *)

(* One satellite of the constellation: a periodic beacon process feeds the
   shape's gateway ports through a fan-out channel, an aperiodic uplink
   process drains the ingress port and, when [forward], sends each frame
   on through the first gateway. The causal tracker is on so the
   observation also covers cross-module flow records. *)
let node ?(forward = false) ~gateways ~period ~wcet ~payload () =
  let sat = pid 0 in
  let src g = "SRC_" ^ g in
  (* Queuing channels are strictly 1:1: one source port per gateway. *)
  let pair g =
    [ Port.queuing_port ~name:(src g) ~partition:sat ~direction:Port.Source
        ~depth:8 ~max_message_size:32;
      Port.queuing_port ~name:g ~partition:sat ~direction:Port.Destination
        ~depth:8 ~max_message_size:32 ]
  in
  let network =
    { Port.ports =
        Port.queuing_port ~name:"RX" ~partition:sat
          ~direction:Port.Destination ~depth:16 ~max_message_size:32
        :: List.concat_map pair gateways;
      channels =
        List.map (fun g -> { Port.source = src g; destinations = [ g ] })
          gateways }
  in
  let p =
    Partition.make ~id:sat ~name:"SAT"
      [ Process.spec ~periodicity:(Process.Periodic period)
          ~time_capacity:period ~wcet ~base_priority:5 "beacon";
        Process.spec ~base_priority:4 "uplink" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sat 50 50 ]
      [ w sat 0 50 ]
  in
  System.create
    (System.config ~network
       ~causal:(Air_obs.Causal.create ())
       ~partitions:
         [ System.partition_setup p
             [ Script.periodic_body
                 (Script.Compute wcet
                 :: List.map
                      (fun g -> Script.Send_queuing (src g, payload))
                      gateways);
               Script.make
                 (Script.Receive_queuing ("RX", Time.infinity)
                 :: (if forward then
                       [ Script.Send_queuing (src (List.hd gateways), "fwd") ]
                     else [])
                 @ [ Script.Log "isl frame" ]) ] ]
       ~schedules:[ schedule ] ())

type scenario = {
  shape : Topology.shape;
  n : int;
  latency : Time.t;
  bytes_per_tick : int;
  periods : int array;  (** multiples of the 50-tick MTF, one per node *)
  wcets : int array;
  forwards : bool array;  (** nodes that send on what they receive *)
  ticks : int;
  domains : int;
}

let make_constellation s =
  let gateways = Topology.gateway_ports s.shape ~gateway:"TX" in
  let modules =
    List.init s.n (fun i ->
        node ~forward:s.forwards.(i) ~gateways ~period:s.periods.(i)
          ~wcet:s.wcets.(i) ~payload:(Printf.sprintf "b%d" i) ())
  in
  Cluster.create
    ~bus:{ Cluster.latency = s.latency; bytes_per_tick = s.bytes_per_tick }
    ~links:
      (Topology.links ~latency:s.latency ~gateway:"TX" ~ingress:"RX" s.shape
         ~n:s.n)
    modules

let ring ?(latency = 3) ?(domains = 2) ?(ticks = 600) n =
  { shape = Topology.Ring;
    n;
    latency;
    bytes_per_tick = 16;
    periods = Array.init n (fun i -> 50 * (1 + (i mod 3)));
    wcets = Array.init n (fun i -> 2 + (i mod 5));
    forwards = Array.make n false;
    ticks;
    domains }

(* The sequential reference run of a scenario. *)
let sequential s =
  let cluster = make_constellation s in
  Cluster.run cluster ~ticks:s.ticks;
  cluster

(* The fleet run at [domains], advancing in [chunks] if given (their sum
   must be [s.ticks]). *)
let fleet ?chunks s =
  let cluster = make_constellation s in
  let fleet = Fleet.create ~domains:s.domains cluster in
  (match chunks with
  | None -> Fleet.run fleet ~ticks:s.ticks
  | Some chunks -> List.iter (fun ticks -> Fleet.run fleet ~ticks) chunks);
  Fleet.close fleet;
  cluster

(* --- Bit-identity on fixed topologies -------------------------------------- *)

(* Fleets of each domain count against one sequential run of [s]. *)
let identity s domains =
  let reference = sequential s in
  List.iter
    (fun domains ->
      Observed.clusters
        ~what:(Printf.sprintf "%d-domain fleet == sequential" domains)
        reference
        (fleet { s with domains }))
    domains

let ring_identity () = identity (ring 4) [ 1; 2; 4 ]

let grid_identity () =
  identity
    { (ring 6) with shape = Topology.Grid { rows = 2; cols = 3 } }
    [ 2; 3 ]

let mesh_identity () =
  identity { (ring 6) with shape = Topology.Mesh; latency = 2 } [ 4 ]

let chunked_runs_identity () =
  (* Barriers are resume points: odd-sized run chunks (including chunks
     far smaller and larger than the lookahead window) change nothing. *)
  let s = ring ~domains:3 ~ticks:500 5 in
  Observed.clusters ~what:"chunked fleet == sequential" (sequential s)
    (fleet ~chunks:[ 1; 2; 123; 210; 164 ] s)

let fleet_is_deterministic () =
  let s = ring ~domains:4 6 in
  Observed.clusters ~what:"two fleet runs agree" (fleet s) (fleet s)

(* --- Randomized equivalence ------------------------------------------------ *)

let scenario_gen =
  QCheck.Gen.(
    let* shape, n =
      oneofl
        [ (Topology.Ring, 2); (Topology.Ring, 3); (Topology.Ring, 5);
          (Topology.Grid { rows = 2; cols = 2 }, 4);
          (Topology.Grid { rows = 2; cols = 3 }, 6);
          (Topology.Mesh, 4); (Topology.Mesh, 6) ]
    in
    let* latency = int_range 1 6 in
    let* bytes_per_tick = int_range 4 32 in
    let* periods = array_size (return n) (map (fun k -> 50 * k) (int_range 1 3)) in
    let* wcets = array_size (return n) (int_range 1 10) in
    let* forwards = array_size (return n) bool in
    let* ticks = int_range 150 450 in
    let* domains = int_range 2 4 in
    return
      { shape; n; latency; bytes_per_tick; periods; wcets; forwards; ticks;
        domains })

let print_scenario s =
  Format.asprintf "%a n=%d lat=%d bpt=%d forwards=%s ticks=%d domains=%d"
    Topology.pp_shape s.shape s.n s.latency s.bytes_per_tick
    (String.concat ""
       (Array.to_list
          (Array.map (fun f -> if f then "1" else "0") s.forwards)))
    s.ticks s.domains

let qcheck_equivalence =
  QCheck.Test.make ~name:"random constellations: fleet == sequential"
    ~count:12
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun s ->
      Observed.clusters ~what:"fleet == sequential" (sequential s) (fleet s);
      true)

(* --- The forwarding relay (cross-window hop) ------------------------------ *)

(* A -> B -> C: A sends a single message; B's RELAY port is both the
   target of A's link and the gateway of B's own link to C — pure
   store-and-forward, no partition involvement. One message means the
   in-flight heap is empty while the relay holds it. *)
let relay_sender () =
  let sat = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"SRC" ~partition:sat ~direction:Port.Source
            ~depth:8 ~max_message_size:32;
          Port.queuing_port ~name:"TM_GW" ~partition:sat
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [ { Port.source = "SRC"; destinations = [ "TM_GW" ] } ] }
  in
  let p =
    Partition.make ~id:sat ~name:"SENDER" [ Process.spec ~base_priority:5 "tx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sat 50 50 ]
      [ w sat 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Compute 2;
                   Script.Send_queuing ("SRC", "r1");
                   Script.Timed_wait 100_000 ] ] ]
       ~schedules:[ schedule ] ())

let relay_hop () =
  let sat = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"RELAY" ~partition:sat
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [] }
  in
  let p =
    Partition.make ~id:sat ~name:"RELAY" [ Process.spec "idle" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sat 50 50 ]
      [ w sat 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p [ Script.make [ Script.Timed_wait 100_000 ] ] ]
       ~schedules:[ schedule ] ())

let relay_ground () =
  let sat = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_IN" ~partition:sat
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [] }
  in
  let p =
    Partition.make ~id:sat ~name:"GROUND" [ Process.spec ~base_priority:5 "rx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sat 50 50 ]
      [ w sat 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Receive_queuing ("TM_IN", Time.infinity);
                   Script.Log "relayed" ] ] ]
       ~schedules:[ schedule ] ())

let make_relay () =
  Cluster.create
    ~bus:{ Cluster.latency = 5; bytes_per_tick = 32 }
    ~links:
      [ Cluster.link ~from_module:0 ~from_port:"TM_GW" ~to_module:1
          ~to_port:"RELAY" ();
        Cluster.link ~from_module:1 ~from_port:"RELAY" ~to_module:2
          ~to_port:"TM_IN" () ]
    [ relay_sender (); relay_hop (); relay_ground () ]

let relay_fleet_identity () =
  (* The two-hop forward crosses shard and window boundaries; the fleet
     must re-drain the relay gateway at the right instants. *)
  let reference = make_relay () in
  Cluster.run reference ~ticks:400;
  List.iter
    (fun domains ->
      let c = make_relay () in
      let fleet = Fleet.create ~domains c in
      Fleet.run fleet ~ticks:400;
      Fleet.close fleet;
      Observed.clusters
        ~what:(Printf.sprintf "%d-domain relay == sequential" domains)
        reference c)
    [ 2; 3 ]

(* --- Event-driven windows ---------------------------------------------------- *)

(* One partition holding a single window over a [mtf]-tick frame, an
   ingress port RX and a ring gateway TX0 fed by SRC. [scripts] are the
   partition's processes, by name. *)
let satellite ?hm_tables ?telemetry ?(autostart = []) ~mtf scripts =
  let sat = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"RX" ~partition:sat
            ~direction:Port.Destination ~depth:16 ~max_message_size:32;
          Port.queuing_port ~name:"SRC" ~partition:sat
            ~direction:Port.Source ~depth:8 ~max_message_size:32;
          Port.queuing_port ~name:"TX0" ~partition:sat
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [ { Port.source = "SRC"; destinations = [ "TX0" ] } ] }
  in
  let p =
    Partition.make ~id:sat ~name:"SAT"
      (List.map (fun (name, _) -> Process.spec ~base_priority:5 name) scripts)
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf
      ~requirements:[ q sat mtf mtf ]
      [ w sat 0 mtf ]
  in
  System.create
    (System.config ~network ?hm_tables ?telemetry
       ~causal:(Air_obs.Causal.create ())
       ~partitions:
         [ System.partition_setup ~autostart p (List.map snd scripts) ]
       ~schedules:[ schedule ] ())

let listener =
  ( "rx",
    Script.make
      [ Script.Receive_queuing ("RX", Time.infinity); Script.Log "heard" ] )

let ring_of ?(latency = 4) modules =
  Cluster.create
    ~bus:{ Cluster.latency; bytes_per_tick = 16 }
    ~links:
      (Topology.links ~latency ~gateway:"TX" ~ingress:"RX" Topology.Ring
         ~n:(List.length modules))
    modules

(* Equal observations after [drive] on a sequential cluster and on fleets
   of each domain count; [drive] gets the run function and the cluster. *)
let fleet_matches_sequential ~what ~make ~domains drive =
  let reference = make () in
  drive (fun ticks -> Cluster.run reference ~ticks) reference;
  List.iter
    (fun domains ->
      let c = make () in
      let fleet = Fleet.create ~domains c in
      drive (fun ticks -> Fleet.run fleet ~ticks) c;
      Fleet.close fleet;
      Observed.clusters
        ~what:(Printf.sprintf "%s: %d-domain fleet == sequential" what domains)
        reference c)
    domains;
  reference

let fault_between_runs_wakes_sender () =
  (* Both satellites idle until their 1000-tick frame ends, so at tick 100
     every module's next work lies at the frame's end. Starting the
     dormant sender there makes it send at once: the run after the
     injection must see that, not the bound cached before it. *)
  let make () =
    ring_of
      [ satellite ~mtf:1000 ~autostart:[ ("tx", false) ]
          [ listener;
            ( "tx",
              Script.make ~on_end:Script.Stop
                [ Script.Send_queuing ("SRC", "wake") ] ) ];
        satellite ~mtf:1000 [ listener ] ]
  in
  let reference =
    fleet_matches_sequential ~what:"wake between runs" ~make ~domains:[ 1; 2 ]
      (fun run c ->
        run 100;
        (match
           System.start_process (Cluster.systems c).(0) (pid 0) ~name:"tx"
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        run 300)
  in
  check Alcotest.int "the woken send crossed the bus" 1
    (Cluster.stats reference).Cluster.transferred

(* A satellite that sends one beacon every [every] ticks and otherwise
   idles, on an [mtf]-tick frame: every module idles for many frames and
   wakes out of phase with the others. *)
let idler ~mtf ~every =
  satellite ~mtf
    [ listener;
      ( "beacon",
        Script.make
          [ Script.Timed_wait every;
            Script.Compute 2;
            Script.Send_queuing ("SRC", "b") ] ) ]

let staggered_idlers_and_a_halt () =
  (* The last module's frame leaves no idle slack and its watchdog wants
     one tick, so the HM shuts it down at its first frame close, 600
     ticks in: from then on it never has work of its own, but the ring
     still delivers into it. Runs in odd chunks so barriers fall
     anywhere. *)
  let halting () =
    satellite ~mtf:600
      ~hm_tables:
        { Hm.default_tables with
          Hm.module_actions =
            [ (Error.Temporal_degradation, Error.Module_shutdown) ] }
      ~telemetry:
        (Air_obs.Telemetry.config
           ~default_watchdog:(Air_obs.Telemetry.watchdog ~min_slack:1 ())
           ())
      [ listener;
        ( "beacon",
          Script.make
            [ Script.Timed_wait 250; Script.Send_queuing ("SRC", "h") ] ) ]
  in
  let make () =
    ring_of ~latency:3
      [ idler ~mtf:40 ~every:370; idler ~mtf:50 ~every:455;
        idler ~mtf:70 ~every:610; idler ~mtf:30 ~every:1130; halting () ]
  in
  let reference =
    fleet_matches_sequential ~what:"idlers" ~make ~domains:[ 1; 2; 3; 4 ]
      (fun run _ -> List.iter run [ 577; 1; 1800; 622 ])
  in
  let systems = Cluster.systems reference in
  check Alcotest.bool "the last module halted" true
    (System.halted systems.(4) <> None);
  check Alcotest.bool "others kept running" true
    (System.halted systems.(0) = None);
  check Alcotest.bool "beacons crossed the bus" true
    ((Cluster.stats reference).Cluster.transferred > 10)

(* The ticks at which a module logged [line]. *)
let output_at sys line =
  List.filter_map
    (fun (time, ev) ->
      match ev with
      | Event.Application_output { line = l; _ } when String.equal l line ->
        Some time
      | _ -> None)
    (Trace.to_list (System.trace sys))

let relay_woken_at_a_window_end () =
  (* A ring of three with a one-tick lookahead. The sender's frame leaves
     in tick 100, drains at 101 and, one tick on the wire and one of
     latency later, arrives at the relay at 103. The pacer (its second
     process, first run in tick 1) has work in tick 102, which ends the
     window then open at 102 + L = 103, so the arrival is delivered at
     the window end with no advance after it. The relay's engine proved,
     in that window's last skip, that it would sleep until its frame
     ends; the delivery wakes its receiver, which forwards the frame in
     tick 103. A fleet that kept the proof would leave the relay asleep
     and the forward would cross the bus late. *)
  let make () =
    ring_of ~latency:1
      [ satellite ~mtf:1000
          [ ( "tx",
              Script.make ~on_end:Script.Stop
                [ Script.Timed_wait 100; Script.Send_queuing ("SRC", "x") ] )
          ];
        satellite ~mtf:1000
          [ ( "relay",
              Script.make
                [ Script.Receive_queuing ("RX", Time.infinity);
                  Script.Send_queuing ("SRC", "fwd") ] ) ];
        satellite ~mtf:1000
          [ listener;
            ( "pace",
              Script.make ~on_end:Script.Stop
                [ Script.Timed_wait 101; Script.Log "pace" ] ) ] ]
  in
  let reference =
    fleet_matches_sequential ~what:"relay woken at a window end" ~make
      ~domains:[ 1; 2; 3; 4 ] (fun run _ -> run 400)
  in
  let systems = Cluster.systems reference in
  check Alcotest.(list int) "the pacer's work" [ 102 ]
    (output_at systems.(2) "pace");
  check Alcotest.int "both hops crossed the bus" 2
    (Cluster.stats reference).Cluster.transferred;
  check Alcotest.int "the forward was heard" 1
    (List.length (output_at systems.(2) "heard"))

(* --- What the observation sees --------------------------------------------- *)

(* The shipped constellation after 2 000 ticks, run sequentially and on a
   two-domain fleet; [perturb] then acts on each side's module 3. *)
let constellation_difference perturb =
  let load () =
    match
      Air_config.Loader.load_fleet_file "../examples/configs/constellation.air"
    with
    | Ok fleet -> fleet.Air_config.Loader.fleet_cluster
    | Error e -> Alcotest.fail e
  in
  let reference = load () in
  Cluster.run reference ~ticks:2_000;
  let c = load () in
  let fleet = Fleet.create ~domains:2 c in
  Fleet.run fleet ~ticks:2_000;
  Fleet.close fleet;
  Observed.clusters ~what:"constellation" reference c;
  perturb `Sequential (Cluster.systems reference).(3);
  perturb `Fleet (Cluster.systems c).(3);
  Observed.difference (Observed.of_cluster reference) (Observed.of_cluster c)

let deliver sys payload =
  let rx = Router.resolve (System.router sys) "RX" in
  ignore (System.deliver_remote sys ~port:rx (Bytes.of_string payload))

(* Module state the trace cannot show. Two same-length frames into RX:
   the first goes to the blocked receiver on both sides, the second stays
   queued and differs in one byte. Then one frame handed straight to the
   blocked receiver's mailbox, on the fleet side only. *)
let observation_names_module_state () =
  check
    Alcotest.(option string)
    "same-length payload left in RX" (Some "m3.ports differs")
    (constellation_difference (fun side sys ->
         deliver sys "frame-0";
         deliver sys (if side = `Fleet then "frame-2" else "frame-1")));
  check
    Alcotest.(option string)
    "payload in a mailbox" (Some "m3.intra differs")
    (constellation_difference (fun side sys ->
         if side = `Fleet then
           Intra.deliver (System.intra_of sys (pid 0)) ~process:1
             (Bytes.of_string "frame")))

(* --- Fault campaigns over fleets ------------------------------------------- *)

let campaign_spec =
  C.spec ~seed:42 ~horizon:1200
    ~injections:
      [ { C.at = 120; fault = F.Link_fault { fault = F.Msg_delay { ticks = 90 } } };
        { C.at = 260; fault = F.Link_fault { fault = F.Msg_duplicate } };
        { C.at = 305; fault = F.Clock_jitter { partition = 0; ticks = 7 } };
        { C.at = 430; fault = F.Link_fault { fault = F.Msg_loss } };
        { C.at = 431; fault = F.Link_fault { fault = F.Msg_corrupt { byte = 0 } } };
        { C.at = 700; fault = F.Port_fault { port = "RX"; fault = F.Msg_loss } } ]
    ()

let campaign_scenario = ring ~latency:4 ~ticks:0 5

let campaign_matches_sequential () =
  let make () = make_constellation campaign_scenario in
  let sequential =
    E.execute ~make:(fun () -> E.cluster (make ())) campaign_spec
  in
  List.iter
    (fun domains ->
      let fleet = Fleet.execute_campaign ~domains ~make campaign_spec in
      check Alcotest.string
        (Printf.sprintf "%d-domain campaign fingerprint" domains)
        sequential.E.fingerprint fleet.E.fingerprint;
      check Alcotest.int "same number of outcomes"
        (List.length sequential.E.outcomes)
        (List.length fleet.E.outcomes))
    [ 1; 2; 3 ]

let campaign_reproducible () =
  let make () = make_constellation campaign_scenario in
  let one () = (Fleet.execute_campaign ~domains:3 ~make campaign_spec).E.fingerprint in
  check Alcotest.string "same seed, same fleet campaign" (one ()) (one ())

(* This process's thread count, from /proc/self/status, once it stops
   changing: a joined domain's thread may take a moment to leave it. *)
let threads () =
  let read () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> Alcotest.fail "/proc/self/status: no Threads line"
          | Some line when String.starts_with ~prefix:"Threads:" line ->
            Scanf.sscanf line "Threads: %d" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  in
  let rec settle last tries =
    Unix.sleepf 0.005;
    let now = read () in
    if now = last || tries = 0 then now else settle now (tries - 1)
  in
  settle (read ()) 100

let raising_campaign_joins_workers () =
  (* There is no partition 99: the injection raises after the first
     advance has spawned the campaign fleet's worker domain. *)
  let spec =
    C.spec ~seed:7 ~horizon:400
      ~injections:
        [ { C.at = 100;
            fault = F.Clock_jitter { partition = 99; ticks = 3 } } ]
      ()
  in
  let make () = make_constellation campaign_scenario in
  let attempt () =
    match Fleet.execute_campaign ~domains:2 ~make spec with
    | _ -> Alcotest.fail "a jitter on a missing partition must raise"
    | exception Invalid_argument _ -> ()
  in
  attempt ();
  let before = threads () in
  for _ = 1 to 5 do
    attempt ()
  done;
  check Alcotest.int "threads after five raising campaigns" before (threads ())

(* --- Construction and bookkeeping ------------------------------------------ *)

let zero_lookahead_rejected () =
  let s = ring 3 in
  let cluster =
    Cluster.create
      ~bus:{ Cluster.latency = 0; bytes_per_tick = 16 }
      ~links:(Topology.links ~latency:0 ~gateway:"TX" ~ingress:"RX" Topology.Ring ~n:3)
      (List.init 3 (fun i ->
           node ~gateways:[ "TX0" ] ~period:s.periods.(i) ~wcet:s.wcets.(i)
             ~payload:"z" ()))
  in
  check Alcotest.bool "zero-latency link rejected" true
    (try
       ignore (Fleet.create ~domains:2 cluster);
       false
     with Invalid_argument _ -> true)

let stats_account_progress () =
  let s = ring ~domains:2 ~ticks:600 4 in
  let cluster = make_constellation s in
  let fleet = Fleet.create ~domains:s.domains cluster in
  Fleet.run fleet ~ticks:s.ticks;
  let stats = Fleet.stats fleet in
  check Alcotest.int "two shards" 2 (Stats.domains stats);
  check Alcotest.bool "windows advanced" true (Stats.windows stats > 0);
  let stepped = ref 0 and skipped = ref 0 and delivered = ref 0 in
  for d = 0 to Stats.domains stats - 1 do
    let sh = Stats.shard stats d in
    check Alcotest.int "round-robin shard size" 2 sh.Stats.sh_modules;
    stepped := !stepped + sh.Stats.sh_stepped;
    skipped := !skipped + sh.Stats.sh_skipped;
    delivered := !delivered + sh.Stats.sh_delivered
  done;
  (* Every module accounts every tick, either executed or skipped. *)
  check Alcotest.int "ticks conserved" (s.n * s.ticks) (!stepped + !skipped);
  check Alcotest.int "deliveries match the bus ledger"
    (Cluster.stats cluster).Cluster.transferred !delivered;
  (match Json_lint.check (Stats.to_json stats) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fleet stats JSON: " ^ e));
  Fleet.close fleet

let topology_shapes () =
  let count shape n =
    List.length (Topology.links ~gateway:"TX" ~ingress:"RX" shape ~n)
  in
  check Alcotest.int "ring links" 5 (count Topology.Ring 5);
  check Alcotest.int "grid links" 12 (count (Topology.Grid { rows = 2; cols = 3 }) 6);
  check Alcotest.int "row-vector grid drops the column direction" 4
    (count (Topology.Grid { rows = 1; cols = 4 }) 4);
  check Alcotest.int "mesh links" 12 (count Topology.Mesh 6);
  check
    Alcotest.(list string)
    "mesh gateways" [ "TX0"; "TX1" ]
    (Topology.gateway_ports Topology.Mesh ~gateway:"TX");
  check Alcotest.bool "grid size mismatch rejected" true
    (try
       ignore (count (Topology.Grid { rows = 2; cols = 2 }) 6);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "tiny mesh rejected" true
    (try
       ignore (count Topology.Mesh 3);
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "fleet: ring bit-identity (1/2/4 domains)" `Quick
      ring_identity;
    Alcotest.test_case "fleet: grid bit-identity" `Quick grid_identity;
    Alcotest.test_case "fleet: mesh bit-identity" `Quick mesh_identity;
    Alcotest.test_case "fleet: chunked runs hit the same barriers" `Quick
      chunked_runs_identity;
    Alcotest.test_case "fleet: deterministic across runs" `Quick
      fleet_is_deterministic;
    QCheck_alcotest.to_alcotest qcheck_equivalence;
    Alcotest.test_case "fleet: relay forwards across windows" `Quick
      relay_fleet_identity;
    Alcotest.test_case "fleet: a fault between runs wakes a sender" `Quick
      fault_between_runs_wakes_sender;
    Alcotest.test_case "fleet: staggered idlers and a halted module" `Quick
      staggered_idlers_and_a_halt;
    Alcotest.test_case "fleet: a relay woken at a window end forwards" `Quick
      relay_woken_at_a_window_end;
    Alcotest.test_case "fleet: the observation names module state" `Quick
      observation_names_module_state;
    Alcotest.test_case "fleet: campaign matches sequential verdicts" `Quick
      campaign_matches_sequential;
    Alcotest.test_case "fleet: campaign reproducible" `Quick
      campaign_reproducible;
    Alcotest.test_case "fleet: a raising campaign joins its workers" `Quick
      raising_campaign_joins_workers;
    Alcotest.test_case "fleet: zero lookahead rejected" `Quick
      zero_lookahead_rejected;
    Alcotest.test_case "fleet: stats account progress" `Quick
      stats_account_progress;
    Alcotest.test_case "topology: shapes and ports" `Quick topology_shapes ]
