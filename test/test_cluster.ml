(* Tests for the inter-module communication infrastructure: Router.inject,
   gateway drain, bus latency/bandwidth serialization, cross-module
   delivery and isolation. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air
open Ident

let check = Alcotest.check
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* Messages queued at the named port of a module. *)
let pending sys name =
  let r = System.router sys in
  Router.pending r ~port:(Router.resolve r name)

(* --- Router.inject -------------------------------------------------------- *)

let inject_net =
  { Port.ports =
      [ Port.queuing_port ~name:"QD" ~partition:(pid 0)
          ~direction:Port.Destination ~depth:2 ~max_message_size:16;
        Port.sampling_port ~name:"SD" ~partition:(pid 0)
          ~direction:Port.Destination ~refresh:100 ~max_message_size:16;
        Port.queuing_port ~name:"SRC" ~partition:(pid 0)
          ~direction:Port.Source ~depth:2 ~max_message_size:16 ];
    channels = [] }

let inject_semantics () =
  let r = Router.create inject_net in
  let id = Router.resolve r in
  check Alcotest.bool "queuing inject" true
    (Router.inject r ~port:(id "QD") ~now:0 (Bytes.of_string "a") = Router.Injected);
  check Alcotest.int "pending" 1 (Router.pending r ~port:(id "QD"));
  ignore (Router.inject r ~port:(id "QD") ~now:0 (Bytes.of_string "b"));
  check Alcotest.bool "overflow" true
    (Router.inject r ~port:(id "QD") ~now:0 (Bytes.of_string "c")
     = Router.Inject_overflow);
  check Alcotest.bool "sampling inject" true
    (Router.inject r ~port:(id "SD") ~now:5 (Bytes.of_string "x") = Router.Injected);
  (match Router.read_sampling r ~caller:(pid 0) ~port:"SD" ~now:6 with
  | Ok (m, Router.Valid) -> check Alcotest.string "read" "x" (Bytes.to_string m)
  | _ -> Alcotest.fail "sampling read after inject");
  check Alcotest.bool "source rejected" true
    (Router.inject r ~port:(id "SRC") ~now:0 (Bytes.of_string "x")
     = Router.Inject_bad_port);
  check Alcotest.bool "unknown rejected" true
    (Router.inject r ~port:(id "NOPE") ~now:0 (Bytes.of_string "x")
     = Router.Inject_bad_port);
  check Alcotest.bool "oversized rejected" true
    (Router.inject r ~port:(id "QD") ~now:0 (Bytes.make 99 'x')
     = Router.Inject_bad_port)

(* --- Two-module cluster ---------------------------------------------------- *)

(* Module 0: a sensor partition sends telemetry into its local gateway.
   Module 1: a ground-interface partition blocks on the remote port. *)
let sensor_module () =
  let sensor = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_SRC" ~partition:sensor
            ~direction:Port.Source ~depth:8 ~max_message_size:32;
          (* The outbound gateway: where the bus picks messages up. *)
          Port.queuing_port ~name:"TM_GW" ~partition:sensor
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [ { Port.source = "TM_SRC"; destinations = [ "TM_GW" ] } ] }
  in
  let p =
    Partition.make ~id:sensor ~name:"SENSOR"
      [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
          ~wcet:5 ~base_priority:5 "sample" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sensor 50 50 ]
      [ w sensor 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p
             [ Script.periodic_body
                 [ Script.Compute 5;
                   Script.Send_queuing ("TM_SRC", "telemetry!") ] ] ]
       ~schedules:[ schedule ] ())

let ground_module () =
  let ground = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_IN" ~partition:ground
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [] }
  in
  let p =
    Partition.make ~id:ground ~name:"GROUND"
      [ Process.spec ~base_priority:5 "downlink" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q ground 50 50 ]
      [ w ground 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Receive_queuing ("TM_IN", Time.infinity);
                   Script.Log "frame received" ] ] ]
       ~schedules:[ schedule ] ())

let make_cluster ?bus () =
  Cluster.create ?bus
    ~links:
      [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
          ~to_module:1 ~to_port:"TM_IN" () ]
    [ sensor_module (); ground_module () ]

let cross_module_delivery () =
  let cluster = make_cluster () in
  Cluster.run cluster ~ticks:500;
  let stats = Cluster.stats cluster in
  check Alcotest.bool "messages crossed" true (stats.Cluster.transferred >= 8);
  check Alcotest.int "no drops" 0 stats.Cluster.dropped;
  let ground = (Cluster.systems cluster).(1) in
  let received =
    Air_sim.Trace.count
      (function
        | Event.Application_output { line = "frame received"; _ } -> true
        | _ -> false)
      (System.trace ground)
  in
  check Alcotest.bool "receiver woken each time" true (received >= 8);
  (* Gateway fully drained. *)
  let sensor = (Cluster.systems cluster).(0) in
  check Alcotest.int "gateway empty" 0
    (pending sensor "TM_GW")

let bus_latency_respected () =
  (* With a large latency, the first message (sent in tick ~5) cannot
     arrive before latency has elapsed. *)
  let cluster =
    make_cluster ~bus:{ Cluster.latency = 100; bytes_per_tick = 32 } ()
  in
  Cluster.run cluster ~ticks:90;
  let ground = (Cluster.systems cluster).(1) in
  check Alcotest.int "nothing before latency" 0
    (Air_sim.Trace.count
       (function
         | Event.Application_output { line = "frame received"; _ } -> true
         | _ -> false)
       (System.trace ground));
  Cluster.run cluster ~ticks:60;
  check Alcotest.bool "arrives after latency" true
    (Air_sim.Trace.count
       (function
         | Event.Application_output { line = "frame received"; _ } -> true
         | _ -> false)
       (System.trace ground)
    > 0)

let bus_bandwidth_serializes () =
  (* 10-byte messages at 1 byte/tick: each transfer occupies the bus for 10
     ticks; messages produced every 50 ticks never queue, but a burst
     serializes. *)
  let cluster =
    make_cluster ~bus:{ Cluster.latency = 0; bytes_per_tick = 1 } ()
  in
  Cluster.run cluster ~ticks:500;
  let stats = Cluster.stats cluster in
  check Alcotest.bool "still delivers" true (stats.Cluster.transferred >= 8);
  check Alcotest.int "no drops" 0 stats.Cluster.dropped

let remote_overflow_counts_as_drop () =
  (* Ground module with a tiny port and a receiver that never reads. *)
  let ground = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_IN" ~partition:ground
            ~direction:Port.Destination ~depth:1 ~max_message_size:32 ];
      channels = [] }
  in
  let p = Partition.make ~id:ground ~name:"DEAF" [ Process.spec "idle" ] in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q ground 50 50 ]
      [ w ground 0 50 ]
  in
  let deaf =
    System.create
      (System.config ~network
         ~partitions:
           [ System.partition_setup p
               [ Script.make [ Script.Timed_wait 100000 ] ] ]
         ~schedules:[ schedule ] ())
  in
  let cluster =
    Cluster.create
      ~links:
        [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
            ~to_module:1 ~to_port:"TM_IN" () ]
      [ sensor_module (); deaf ]
  in
  Cluster.run cluster ~ticks:500;
  let stats = Cluster.stats cluster in
  (* One message sits in the port; the rest overflow. Overflow is reported
     as delivered-with-overflow-event (Ok), not a drop. *)
  check Alcotest.int "no hard drops" 0 stats.Cluster.dropped;
  check Alcotest.bool "overflow events at target" true
    (Air_sim.Trace.count
       (function Event.Port_overflow _ -> true | _ -> false)
       (System.trace deaf)
    > 0)

let modules_remain_isolated () =
  (* Whatever the bus does, each module's partitions keep their timing. *)
  let cluster =
    make_cluster ~bus:{ Cluster.latency = 1; bytes_per_tick = 1 } ()
  in
  Cluster.run cluster ~ticks:1000;
  Array.iter
    (fun system ->
      check Alcotest.int "no violations" 0
        (List.length (System.violations system)))
    (Cluster.systems cluster)

let duplicate_gateway_rejected () =
  check Alcotest.bool "duplicate gateway" true
    (try
       ignore
         (Cluster.create
            ~links:
              [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
                  ~to_module:1 ~to_port:"A" ();
                Cluster.link ~from_module:0 ~from_port:"TM_GW"
                  ~to_module:1 ~to_port:"B" () ]
            [ sensor_module (); ground_module () ]);
       false
     with Invalid_argument _ -> true)

let bad_link_rejected () =
  check Alcotest.bool "bad index" true
    (try
       ignore
         (Cluster.create
            ~links:
              [ Cluster.link ~from_module:0 ~from_port:"X"
                  ~to_module:7 ~to_port:"Y" () ]
            [ sensor_module () ]);
       false
     with Invalid_argument _ -> true)

(* A link's ports are bound when the cluster is created: a gateway must be
   a queuing destination port of its source module and an ingress a
   destination port of its target module, or the link would run dead. *)
let rejected ~port links modules =
  match Cluster.create ~links modules with
  | _ -> Alcotest.failf "a link over %s was accepted" port
  | exception Invalid_argument m ->
    check Alcotest.bool ("the error names " ^ port) true
      (Astring_contains.contains m port)

let link_ports_checked () =
  let one ~from_port ~to_port =
    [ Cluster.link ~from_module:0 ~from_port ~to_module:1 ~to_port () ]
  in
  rejected ~port:"TM_GWW"
    (one ~from_port:"TM_GWW" ~to_port:"TM_IN")
    [ sensor_module (); ground_module () ];
  rejected ~port:"TM_INN"
    (one ~from_port:"TM_GW" ~to_port:"TM_INN")
    [ sensor_module (); ground_module () ];
  (* A source port holds nothing to drain, and takes no delivery. *)
  rejected ~port:"TM_SRC"
    (one ~from_port:"TM_SRC" ~to_port:"TM_IN")
    [ sensor_module (); ground_module () ];
  rejected ~port:"TM_SRC"
    (one ~from_port:"TM_GW" ~to_port:"TM_SRC")
    [ sensor_module (); sensor_module () ];
  (* The shipped constellation node wired as a mesh: it declares TX0
     only, so the twelve TX1 links would never carry a frame. *)
  let node () =
    match
      Air_config.Loader.load_file "../examples/configs/constellation_node.air"
    with
    | Ok cfg -> System.create cfg
    | Error e -> Alcotest.fail e
  in
  rejected ~port:"TX1"
    (Air_fleet.Topology.links ~gateway:"TX" ~ingress:"RX"
       Air_fleet.Topology.Mesh ~n:12)
    (List.init 12 (fun _ -> node ()))

(* Conservation: every message sent into the gateway is accounted for —
   delivered across, still in flight, still in the gateway, or recorded as
   target overflow. *)
let qcheck_conservation =
  QCheck.Test.make ~name:"cluster conserves messages" ~count:25
    QCheck.(pair (int_range 0 60) (int_range 1 32))
    (fun (latency, bytes_per_tick) ->
      let cluster =
        make_cluster ~bus:{ Cluster.latency; bytes_per_tick } ()
      in
      Cluster.run cluster ~ticks:700;
      let sensor = (Cluster.systems cluster).(0) in
      let ground = (Cluster.systems cluster).(1) in
      let sent =
        Air_sim.Trace.count
          (function
            | Event.Port_send { port = "TM_SRC"; _ } -> true
            | _ -> false)
          (System.trace sensor)
      in
      ignore ground;
      let stats = Cluster.stats cluster in
      let in_gateway = pending sensor "TM_GW" in
      (* Every message drained from the gateway ends up exactly one of:
         transferred (possibly overflowing at the target, which is still a
         bus-level delivery), dropped (bad target port), or in flight. *)
      sent
      = stats.Cluster.transferred + stats.Cluster.dropped
        + stats.Cluster.in_flight + in_gateway)

(* --- Bus fault injection --------------------------------------------------- *)

let bus_drop_accounted () =
  (* Nothing in flight yet: the injection reports so. *)
  let cluster =
    make_cluster ~bus:{ Cluster.latency = 100; bytes_per_tick = 32 } ()
  in
  check Alcotest.bool "empty bus absorbs" false
    (Cluster.inject_bus_fault cluster Cluster.Bus_drop);
  (* First message is sent around tick 6 and stays in flight for 100
     ticks; dropping it must show up in the drop counter and leave the
     conservation ledger balanced. *)
  Cluster.run cluster ~ticks:50;
  check Alcotest.bool "in-flight transfer dropped" true
    (Cluster.inject_bus_fault cluster Cluster.Bus_drop);
  Cluster.run cluster ~ticks:650;
  let stats = Cluster.stats cluster in
  check Alcotest.int "drop counted" 1 stats.Cluster.dropped;
  let sensor = (Cluster.systems cluster).(0) in
  let sent =
    Air_sim.Trace.count
      (function Event.Port_send { port = "TM_SRC"; _ } -> true | _ -> false)
      (System.trace sensor)
  in
  check Alcotest.int "conservation with drop" sent
    (stats.Cluster.transferred + stats.Cluster.dropped
    + stats.Cluster.in_flight
    + pending sensor "TM_GW")

let bus_duplicate_delivers_twice () =
  let cluster =
    make_cluster ~bus:{ Cluster.latency = 100; bytes_per_tick = 32 } ()
  in
  Cluster.run cluster ~ticks:50;
  check Alcotest.bool "in-flight transfer duplicated" true
    (Cluster.inject_bus_fault cluster Cluster.Bus_duplicate);
  Cluster.run cluster ~ticks:650;
  let stats = Cluster.stats cluster in
  let sensor = (Cluster.systems cluster).(0) in
  let sent =
    Air_sim.Trace.count
      (function Event.Port_send { port = "TM_SRC"; _ } -> true | _ -> false)
      (System.trace sensor)
  in
  (* One extra bus-level delivery beyond what the sensor ever sent. *)
  check Alcotest.int "one extra delivery" (sent + 1)
    (stats.Cluster.transferred + stats.Cluster.dropped
    + stats.Cluster.in_flight
    + pending sensor "TM_GW");
  let ground = (Cluster.systems cluster).(1) in
  let received =
    Air_sim.Trace.count
      (function
        | Event.Application_output { line = "frame received"; _ } -> true
        | _ -> false)
      (System.trace ground)
  in
  check Alcotest.bool "receiver drained the duplicate too" true
    (received >= stats.Cluster.transferred - stats.Cluster.dropped)

(* A sensor that sends exactly once — lets delay tests isolate one
   transfer. *)
let one_shot_sensor () =
  let sensor = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_SRC" ~partition:sensor
            ~direction:Port.Source ~depth:8 ~max_message_size:32;
          Port.queuing_port ~name:"TM_GW" ~partition:sensor
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [ { Port.source = "TM_SRC"; destinations = [ "TM_GW" ] } ] }
  in
  let p =
    Partition.make ~id:sensor ~name:"SENSOR"
      [ Process.spec ~base_priority:5 "sample" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sensor 50 50 ]
      [ w sensor 0 50 ]
  in
  System.create
    (System.config ~network
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Compute 5;
                   Script.Send_queuing ("TM_SRC", "m1");
                   Script.Send_queuing ("TM_SRC", "m2");
                   (* Script bodies loop: park the process so exactly two
                      messages ever reach the bus. *)
                   Script.Timed_wait 100_000 ] ] ]
       ~schedules:[ schedule ] ())

let bus_delay_wakes_blocked_receiver () =
  (* The ground process blocks forever on TM_IN; the only message on the
     bus is delayed by 300 ticks mid-flight. The receiver must sleep
     through the original arrival instant and still wake when the delayed
     delivery finally lands. *)
  let cluster =
    Cluster.create
      ~bus:{ Cluster.latency = 20; bytes_per_tick = 32 }
      ~links:
        [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
            ~to_module:1 ~to_port:"TM_IN" () ]
      [ one_shot_sensor (); ground_module () ]
  in
  Cluster.run cluster ~ticks:10;
  (* Both of the sensor's messages are in flight; delay each by 300. *)
  check Alcotest.bool "first transfer delayed" true
    (Cluster.inject_bus_fault cluster (Cluster.Bus_delay 300));
  check Alcotest.bool "second transfer delayed" true
    (Cluster.inject_bus_fault cluster (Cluster.Bus_delay 300));
  let ground = (Cluster.systems cluster).(1) in
  let received () =
    Air_sim.Trace.count
      (function
        | Event.Application_output { line = "frame received"; _ } -> true
        | _ -> false)
      (System.trace ground)
  in
  Cluster.run cluster ~ticks:200;
  check Alcotest.int "still blocked at the original arrival" 0 (received ());
  Cluster.run cluster ~ticks:300;
  check Alcotest.bool "woken by the delayed delivery" true (received () >= 1);
  check Alcotest.int "nothing dropped" 0 (Cluster.stats cluster).Cluster.dropped

let bus_reorder_swaps_deliveries () =
  (* Two transfers in flight; a deaf receiver accumulates them, so the
     delivery order is observable in its destination queue. *)
  let ground = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"TM_IN" ~partition:ground
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [] }
  in
  let p = Partition.make ~id:ground ~name:"DEAF" [ Process.spec "idle" ] in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q ground 50 50 ]
      [ w ground 0 50 ]
  in
  let deaf =
    System.create
      (System.config ~network
         ~partitions:
           [ System.partition_setup p
               [ Script.make [ Script.Timed_wait 100000 ] ] ]
         ~schedules:[ schedule ] ())
  in
  let cluster =
    Cluster.create
      ~bus:{ Cluster.latency = 300; bytes_per_tick = 64 }
      ~links:
        [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
            ~to_module:1 ~to_port:"TM_IN" () ]
      [ one_shot_sensor (); deaf ]
  in
  Cluster.run cluster ~ticks:60;
  check Alcotest.bool "two transfers reordered" true
    (Cluster.inject_bus_fault cluster Cluster.Bus_reorder);
  Cluster.run cluster ~ticks:400;
  check Alcotest.int "both delivered" 2
    (Cluster.stats cluster).Cluster.transferred;
  let router = System.router deaf in
  let pop () =
    match Router.steal_head router ~port:"TM_IN" ~now:(System.now deaf) with
    | Some (b, _cid) -> Bytes.to_string b
    | None -> Alcotest.fail "destination queue shorter than expected"
  in
  check Alcotest.string "second message first" "m2" (pop ());
  check Alcotest.string "first message last" "m1" (pop ())

let bus_corrupt_flips_payload_byte () =
  let cluster =
    Cluster.create
      ~bus:{ Cluster.latency = 300; bytes_per_tick = 64 }
      ~links:
        [ Cluster.link ~from_module:0 ~from_port:"TM_GW"
            ~to_module:1 ~to_port:"TM_IN" () ]
      [ one_shot_sensor (); ground_module () ]
  in
  Cluster.run cluster ~ticks:60;
  check Alcotest.bool "in-flight payload corrupted" true
    (Cluster.inject_bus_fault cluster (Cluster.Bus_corrupt { byte = 0 }));
  Cluster.run cluster ~ticks:400;
  (* The corrupted copy arrived (no drop), but its first byte was
     inverted: the ground port saw some payload that is not "m1". *)
  check Alcotest.int "no drops" 0 (Cluster.stats cluster).Cluster.dropped;
  check Alcotest.int "both delivered" 2
    (Cluster.stats cluster).Cluster.transferred

let cluster_document_loads () =
  let candidates =
    [ "examples/configs/crosslink.air";
      "../examples/configs/crosslink.air";
      "../../examples/configs/crosslink.air";
      "../../../examples/configs/crosslink.air" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> () (* source tree not visible from the test sandbox *)
  | Some path -> (
    match Air_config.Loader.load_cluster_file path with
    | Error e -> Alcotest.fail e
    | Ok cluster ->
      Cluster.run cluster ~ticks:1500;
      let stats = Cluster.stats cluster in
      check Alcotest.bool "frames crossed" true (stats.Cluster.transferred >= 4);
      check Alcotest.int "no drops" 0 stats.Cluster.dropped)

let suite =
  [ Alcotest.test_case "router: inject semantics" `Quick inject_semantics;
    Alcotest.test_case "cluster: cross-module delivery" `Quick
      cross_module_delivery;
    Alcotest.test_case "cluster: bus latency respected" `Quick
      bus_latency_respected;
    Alcotest.test_case "cluster: bandwidth serializes" `Quick
      bus_bandwidth_serializes;
    Alcotest.test_case "cluster: remote overflow" `Quick
      remote_overflow_counts_as_drop;
    Alcotest.test_case "cluster: modules remain isolated" `Quick
      modules_remain_isolated;
    Alcotest.test_case "cluster: bad link rejected" `Quick bad_link_rejected;
    Alcotest.test_case "cluster: link ports checked at creation" `Quick
      link_ports_checked;
    Alcotest.test_case "cluster: duplicate gateway rejected" `Quick
      duplicate_gateway_rejected;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    Alcotest.test_case "cluster: bus drop accounted" `Quick bus_drop_accounted;
    Alcotest.test_case "cluster: bus duplicate delivers twice" `Quick
      bus_duplicate_delivers_twice;
    Alcotest.test_case "cluster: bus delay wakes blocked receiver" `Quick
      bus_delay_wakes_blocked_receiver;
    Alcotest.test_case "cluster: bus reorder swaps deliveries" `Quick
      bus_reorder_swaps_deliveries;
    Alcotest.test_case "cluster: bus corrupt flips payload byte" `Quick
      bus_corrupt_flips_payload_byte;
    Alcotest.test_case "cluster: document loads and runs" `Quick
      cluster_document_loads ]
