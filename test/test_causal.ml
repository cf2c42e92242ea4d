(* Causal correlation-id tests: the packed-int field layout survives
   round-trips for arbitrary field values, the record ring keeps bounded
   retention, the stamping hot path never allocates, flow entries render
   into lint-clean Chrome flow events, and — the cross-module acceptance
   property — a two-module cluster trace carries send and receive flow
   events sharing one correlation id, identically in every engine mode. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air
open Ident
module Causal = Air_obs.Causal
module Trace_export = Air_obs.Trace_export
module Engine = Air_exec.Engine

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let contains hay needle = Astring_contains.contains hay needle
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* --- Packed-id field layout ------------------------------------------------ *)

(* The documented masks, hardcoded on purpose: the bit layout is a wire
   format (ids appear verbatim in exported traces), so a layout change
   must fail here even if pack/unpack stay mutually consistent. *)
let module_mask = 0xff
let partition_mask = 0xff
let port_mask = 0x3ff
let seq_mask = 0xffffffff

(* Field generators deliberately overflow every mask so truncation — not
   rejection — is pinned as the total-function contract. *)
let fields_gen =
  QCheck.Gen.(
    quad (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xffff)
      (map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0x3ffff)
         (int_bound 0xffff)))

let pack_roundtrip =
  QCheck.Test.make ~name:"pack/unpack round-trips (fields masked)" ~count:500
    (QCheck.make fields_gen) (fun (m, p, q, s) ->
      let id = Causal.pack ~module_id:m ~partition:p ~port:q ~seq:s in
      Causal.is_some id
      && Causal.module_of id = m land module_mask
      && Causal.partition_of id = p land partition_mask
      && Causal.port_of id = q land port_mask
      && Causal.seq_of id = s land seq_mask
      && Causal.flow_of id = Causal.pack ~module_id:m ~partition:p ~port:q ~seq:0
      && Causal.seq_of (Causal.flow_of id) = 0
      && Causal.module_of (Causal.flow_of id) = Causal.module_of id)

let none_and_rendering () =
  check Alcotest.bool "none is absent" false (Causal.is_some Causal.none);
  check Alcotest.string "none renders as dash" "-"
    (Causal.to_string Causal.none);
  let id = Causal.pack ~module_id:1 ~partition:2 ~port:3 ~seq:42 in
  check Alcotest.string "id rendering" "m1.p2.q3#42" (Causal.to_string id);
  check Alcotest.string "flow rendering" "m1.p2.q3"
    (Causal.flow_to_string id);
  (* The all-zero origin must still be distinguishable from [none]. *)
  check Alcotest.bool "zero origin is some" true
    (Causal.is_some (Causal.pack ~module_id:0 ~partition:0 ~port:0 ~seq:0))

(* --- Tracker ring ---------------------------------------------------------- *)

let ring_retention_is_bounded () =
  let t = Causal.create ~capacity:4 ~module_id:3 () in
  check Alcotest.int "homed" 3 (Causal.module_id t);
  for i = 0 to 9 do
    ignore (Causal.stamp t ~now:i ~partition:1 ~port:2)
  done;
  check Alcotest.int "length capped" 4 (Causal.length t);
  check Alcotest.int "total keeps counting" 10 (Causal.total t);
  check Alcotest.int "dropped = total - length" 6 (Causal.dropped t);
  check Alcotest.int "capacity" 4 (Causal.capacity t);
  check
    Alcotest.(list int)
    "retained entries are the newest, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> Causal.seq_of e.Causal.id) (Causal.entries t));
  List.iter
    (fun e ->
      check Alcotest.bool "send hop" true (e.Causal.kind = Causal.Send);
      check Alcotest.int "origin module" 3 (Causal.module_of e.Causal.id);
      check Alcotest.int "track is the partition" 1 e.Causal.track)
    (Causal.entries t)

let none_hops_are_ignored () =
  let t = Causal.create ~capacity:8 () in
  Causal.receive t ~now:1 ~track:0 Causal.none;
  Causal.forward t ~now:2 Causal.none;
  Causal.perturb t ~now:3 ~what:Causal.Drop Causal.none;
  check Alcotest.int "nothing recorded" 0 (Causal.total t);
  check Alcotest.bool "no perturbation retained" false
    (Causal.is_some (Causal.last_perturbed t));
  let id = Causal.stamp t ~now:4 ~partition:0 ~port:0 in
  Causal.perturb t ~now:5 ~what:Causal.Bus_corrupt id;
  check Alcotest.int "last perturbed id" id (Causal.last_perturbed t);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Causal.create: capacity must be positive") (fun () ->
      ignore (Causal.create ~capacity:0 ()))

(* Tentpole guarantee: stamping and hop recording stay off the minor heap
   even while the ring wraps — same calibration idiom as the engine's
   steady-state test ([Gc.minor_words] itself boxes a float). *)
let stamping_is_allocation_free () =
  let t = Causal.create ~capacity:256 () in
  for i = 0 to 299 do
    ignore (Causal.stamp t ~now:i ~partition:1 ~port:2)
  done;
  let calibration =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let id = Causal.stamp t ~now:i ~partition:1 ~port:2 in
    Causal.forward t ~now:i id;
    Causal.perturb t ~now:i ~what:Causal.Bus_delay id;
    Causal.receive t ~now:i ~track:1 id
  done;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words across 10000 stamped hops"
    calibration (after -. before)

(* --- Chrome flow-event emission -------------------------------------------- *)

let kind_gen =
  QCheck.Gen.oneofl
    [ Causal.Send; Causal.Receive; Causal.Forward;
      Causal.Perturb Causal.Drop; Causal.Perturb Causal.Corrupt;
      Causal.Perturb Causal.Bus_reorder; Causal.Perturb Causal.Bus_delay ]

let entry_gen =
  QCheck.Gen.(
    map2
      (fun (m, p, q, s) (kind, time, track) ->
        { Causal.kind; id = Causal.pack ~module_id:m ~partition:p ~port:q ~seq:s;
          time; track })
      fields_gen
      (triple kind_gen (int_bound 1_000_000) (int_range (-1) 30)))

(* Satellite: arbitrary causal entries emit lint-clean Chrome JSON whose
   flow rows carry the packed id verbatim, with the right phase letter. *)
let flow_emission_is_valid_json =
  QCheck.Test.make ~name:"flow entries emit lint-clean Chrome rows"
    ~count:300 (QCheck.make entry_gen) (fun entry ->
      let json = Trace_export.to_chrome ~flows:[ entry ] [] in
      (match Json_lint.check json with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid JSON: %s" e);
      let phase, correlation =
        match entry.Causal.kind with
        (* Send/forward/receive rows bind through the packed id field;
           perturbations are instants annotated with the flow label. *)
        | Causal.Send ->
          ("\"ph\":\"s\"", Printf.sprintf "\"id\":%d" entry.Causal.id)
        | Causal.Receive ->
          ( "\"ph\":\"f\",\"bp\":\"e\"",
            Printf.sprintf "\"id\":%d" entry.Causal.id )
        | Causal.Forward ->
          ("\"ph\":\"t\"", Printf.sprintf "\"id\":%d" entry.Causal.id)
        | Causal.Perturb what ->
          ( "\"name\":\"flow.perturb\"",
            Printf.sprintf "\"detail\":\"%s\""
              (Causal.perturbation_label what) )
      in
      contains json phase && contains json correlation
      && contains json
           (Printf.sprintf "\"flow\":\"%s\""
              (Causal.to_string entry.Causal.id))
      && contains json
           (Printf.sprintf "\"ts\":%d" entry.Causal.time))

(* --- A module whose flows stay local --------------------------------------- *)

(* Two partitions of one module joined by a queuing channel: OUT drains
   into IN, the receiver blocks on it. Every send and its matching
   receive land in the same tracker. *)
let flow_system () =
  let tx = pid 0 and rx = pid 1 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"OUT" ~partition:tx ~direction:Port.Source
            ~depth:8 ~max_message_size:32;
          Port.queuing_port ~name:"IN" ~partition:rx
            ~direction:Port.Destination ~depth:8 ~max_message_size:32 ];
      channels = [ { Port.source = "OUT"; destinations = [ "IN" ] } ] }
  in
  let tx_p =
    Partition.make ~id:tx ~name:"TX"
      [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
          ~wcet:5 ~base_priority:5 "tx" ]
  in
  let rx_p =
    Partition.make ~id:rx ~name:"RX" [ Process.spec ~base_priority:5 "rx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf:50
      ~requirements:[ q tx 50 20; q rx 50 20 ]
      [ w tx 0 20; w rx 25 20 ]
  in
  System.create
    (System.config ~network ~causal:(Causal.create ())
       ~partitions:
         [ System.partition_setup tx_p
             [ Script.periodic_body
                 [ Script.Compute 5; Script.Send_queuing ("OUT", "ping") ] ];
           System.partition_setup rx_p
             [ Script.make
                 [ Script.Receive_queuing ("IN", Time.infinity);
                   Script.Log "got" ] ] ]
       ~schedules:[ schedule ] ())

let local_flow_pairs_sends_with_receives () =
  let s = flow_system () in
  System.run s ~ticks:1_000;
  let entries = System.flow_entries s in
  let sends =
    List.filter (fun e -> e.Causal.kind = Causal.Send) entries
  and receives =
    List.filter (fun e -> e.Causal.kind = Causal.Receive) entries
  in
  check Alcotest.bool "sends recorded" true (List.length sends >= 19);
  check Alcotest.int "every send consumed" (List.length sends)
    (List.length receives);
  List.iter
    (fun r ->
      match
        List.find_opt (fun snd -> snd.Causal.id = r.Causal.id) sends
      with
      | None ->
        Alcotest.failf "receive %s has no matching send"
          (Causal.to_string r.Causal.id)
      | Some snd ->
        (* A reader already blocked on the queue is handed the message on
           the send tick itself, so zero latency is legitimate. *)
        check Alcotest.bool
          (Causal.to_string r.Causal.id ^ ": causal order")
          true
          (r.Causal.time >= snd.Causal.time))
    receives;
  (* One flow: every id shares the (module, partition, port) origin. *)
  (match sends with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun e ->
        check Alcotest.int "single flow key"
          (Causal.flow_of first.Causal.id)
          (Causal.flow_of e.Causal.id))
      entries)

(* The engine contract extends to causal records: adaptive skip-ahead
   execution must stamp and record hop-for-hop identically to per-tick. *)
let modes_record_identical_flows () =
  let reference = flow_system () in
  System.run reference ~ticks:2_000;
  check Alcotest.bool "reference recorded flows" true
    (System.flow_entries reference <> []);
  let engine = Engine.create ~mode:Engine.Adaptive (flow_system ()) in
  Engine.advance engine ~ticks:2_000;
  Observed.systems ~what:"adaptive vs per-tick" reference
    (Engine.system engine)

(* Bounded-retention counters surface in exports (satellite): the span
   and flow drop counts ride along as metrics gauges and as the
   [air.meta] row of the Chrome trace. *)
let drop_counts_surface_in_exports () =
  let recorder = Air_obs.Span.create ~capacity:8 () in
  let tx = pid 0 in
  let network =
    { Port.ports =
        [ Port.queuing_port ~name:"OUT" ~partition:tx ~direction:Port.Source
            ~depth:1 ~max_message_size:8 ];
      channels = [] }
  in
  let p =
    Partition.make ~id:tx ~name:"TX"
      [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
          ~wcet:5 ~base_priority:5 "tx" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf:50
      ~requirements:[ q tx 50 20 ]
      [ w tx 0 20 ]
  in
  let s =
    System.create
      (System.config ~network ~recorder ~causal:(Causal.create ~capacity:4 ())
         ~partitions:
           [ System.partition_setup p
               [ Script.periodic_body
                   [ Script.Compute 5; Script.Send_queuing ("OUT", "x") ] ] ]
         ~schedules:[ schedule ] ())
  in
  System.run s ~ticks:2_000;
  let recorder = Option.get (System.recorder s) in
  check Alcotest.bool "recorder dropped spans" true
    (Air_obs.Span.dropped recorder > 0);
  let tracker = Option.get (System.causal s) in
  check Alcotest.bool "tracker dropped records" true
    (Causal.dropped tracker > 0);
  let meta = System.export_meta s in
  check Alcotest.int "meta dropped_spans"
    (Air_obs.Span.dropped recorder)
    (List.assoc "dropped_spans" meta);
  check Alcotest.int "meta dropped_flow_records" (Causal.dropped tracker)
    (List.assoc "dropped_flow_records" meta);
  let json = System.metrics_json s in
  check Alcotest.bool "dropped_spans gauge exported" true
    (contains json "recorder.dropped_spans");
  check Alcotest.bool "dropped_records gauge exported" true
    (contains json "causal.dropped_records");
  let trace = System.chrome_trace s in
  (match Json_lint.check trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid chrome trace: %s" e);
  check Alcotest.bool "air.meta row present" true
    (contains trace "\"air.meta\"");
  check Alcotest.bool "meta carries the span drop count" true
    (contains trace
       (Printf.sprintf "\"dropped_spans\":%d"
          (Air_obs.Span.dropped recorder)))

(* --- Cross-module acceptance ----------------------------------------------- *)

(* The two-module fixture of [test_cluster.ml] with a tracker per module:
   SENSOR writes telemetry into its gateway, the bus carries it to
   GROUND, whose partition blocks on the remote port. *)
let sensor_module () =
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
      [ Process.spec ~periodicity:(Process.Periodic 50) ~time_capacity:50
          ~wcet:5 ~base_priority:5 "sample" ]
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"solo" ~mtf:50
      ~requirements:[ q sensor 50 50 ]
      [ w sensor 0 50 ]
  in
  System.create
    (System.config ~network ~causal:(Causal.create ())
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
    (System.config ~network ~causal:(Causal.create ())
       ~partitions:
         [ System.partition_setup p
             [ Script.make
                 [ Script.Receive_queuing ("TM_IN", Time.infinity);
                   Script.Log "frame received" ] ] ]
       ~schedules:[ schedule ] ())

let make_cluster () =
  Cluster.create
    ~links:
      [ Cluster.link ~from_module:0 ~from_port:"TM_GW" ~to_module:1
          ~to_port:"TM_IN" () ]
    [ sensor_module (); ground_module () ]

(* Acceptance: the merged cluster trace shows the whole flow — a send in
   the sensor module, a forward at its gateway and a receive in the
   ground module, all carrying the same correlation id. *)
let cluster_flows_cross_modules () =
  let cluster = make_cluster () in
  Cluster.run cluster ~ticks:500;
  let systems = Cluster.systems cluster in
  check Alcotest.int "trackers homed to cluster indices" 1
    (Causal.module_id (Option.get (System.causal systems.(1))));
  let sends =
    List.filter
      (fun e -> e.Causal.kind = Causal.Send)
      (System.flow_entries systems.(0))
  and forwards =
    List.filter
      (fun e -> e.Causal.kind = Causal.Forward)
      (System.flow_entries systems.(0))
  and receives =
    List.filter
      (fun e -> e.Causal.kind = Causal.Receive)
      (System.flow_entries systems.(1))
  in
  check Alcotest.bool "messages crossed" true (List.length receives >= 8);
  List.iter
    (fun r ->
      check Alcotest.int "receive id originates in module 0" 0
        (Causal.module_of r.Causal.id);
      check Alcotest.bool
        (Causal.to_string r.Causal.id ^ ": sent by module 0")
        true
        (List.exists (fun snd -> snd.Causal.id = r.Causal.id) sends);
      check Alcotest.bool
        (Causal.to_string r.Causal.id ^ ": forwarded at the gateway")
        true
        (List.exists (fun f -> f.Causal.id = r.Causal.id) forwards))
    receives;
  let json = Cluster.chrome_trace cluster in
  (match Json_lint.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid cluster trace: %s" e);
  let first = (List.hd receives).Causal.id in
  let occurrences needle =
    let n = String.length needle and l = String.length json in
    let count = ref 0 in
    for i = 0 to l - n do
      if String.sub json i n = needle then incr count
    done;
    !count
  in
  check Alcotest.bool "send phase present" true (contains json "\"ph\":\"s\"");
  check Alcotest.bool "step phase present" true (contains json "\"ph\":\"t\"");
  check Alcotest.bool "finish phase binds to enclosing slice" true
    (contains json "\"ph\":\"f\",\"bp\":\"e\"");
  check Alcotest.bool "one id on send, forward and receive rows" true
    (occurrences (Printf.sprintf "\"id\":%d" first) >= 3)

let suite =
  [ Alcotest.test_case "none and rendering" `Quick none_and_rendering;
    Alcotest.test_case "ring retention is bounded" `Quick
      ring_retention_is_bounded;
    Alcotest.test_case "none hops are ignored" `Quick none_hops_are_ignored;
    Alcotest.test_case "stamping is allocation-free" `Quick
      stamping_is_allocation_free;
    Alcotest.test_case "local flow pairs sends with receives" `Quick
      local_flow_pairs_sends_with_receives;
    Alcotest.test_case "engine modes record identical flows" `Quick
      modes_record_identical_flows;
    Alcotest.test_case "drop counts surface in exports" `Quick
      drop_counts_surface_in_exports;
    Alcotest.test_case "cluster flows cross modules" `Quick
      cluster_flows_cross_modules;
    qcheck pack_roundtrip;
    qcheck flow_emission_is_valid_json ]
