(* The observation ([Air.Observe]) behind every "same run" check: two
   modules built and run alike observe equal, and one piece of state
   changed in one of them is named by the section that holds it — state
   sections before the event record, so a change that also emits an
   event is still named by its state. *)

open Air
module Router = Air_ipc.Router

let check = Alcotest.check
let a = Air_model.Ident.Partition_id.make 0

let document =
  {|(air-system
  (partitions
    (partition (name A)
      (objects (semaphore S 0 4 fifo))
      (processes
        (process (name p) (period 100) (capacity 100) (wcet 5) (priority 5)
          (script (compute 5) (periodic-wait))))))
  (ports
    (queuing-port (name IN) (partition A) (direction destination) (depth 4)
      (max-size 16)))
  (schedules
    (schedule (name s0) (mtf 100)
      (requirements (req (partition A) (cycle 100) (duration 100)))
      (windows (window (partition A) (offset 0) (duration 100))))
    (schedule (name s1) (mtf 100)
      (requirements (req (partition A) (cycle 100) (duration 50)))
      (windows (window (partition A) (offset 0) (duration 50)))))
  (contention (budget (default 1000)) (compute-cost 1))
  (causal (retention 64)))|}

(* The document with a flight recorder, run for [ticks]. *)
let make ?(ticks = 250) () =
  match Air_config.Loader.load document with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let s =
      System.create
        { cfg with System.recorder = Some (Air_obs.Span.create ()) }
    in
    System.run s ~ticks;
    s

let changes =
  [ ( "a message queued in a port",
      "ports",
      fun s ->
        let r = System.router s in
        ignore
          (Router.inject r ~port:(Router.resolve r "IN") ~now:(System.now s)
             (Bytes.of_string "m")) );
    ( "Kernel.set_priority",
      "processes",
      fun s -> ignore (Air_pos.Kernel.set_priority (System.kernel_of s a) 0 9)
    );
    ( "a semaphore signal",
      "intra",
      fun s ->
        ignore
          (Air_pos.Intra.signal_semaphore (System.intra_of s a)
             ~now:(System.now s) ~name:"S") );
    ( "a contention charge",
      "contention",
      fun s ->
        ignore
          (Air_spatial.Contention.charge
             (Option.get (System.contention s))
             ~partition:0 ~cost:1) );
    ( "a metric counter",
      "metrics",
      fun s ->
        Air_obs.Metrics.incr
          (Air_obs.Metrics.counter (System.metrics s) "ipc.overflows") );
    ( "a span instant",
      "spans",
      fun s ->
        Air_obs.Span.instant
          (Option.get (System.recorder s))
          ~now:(System.now s) ~track:0 "probe" );
    ( "a flow stamp",
      "flows",
      fun s ->
        ignore
          (Air_obs.Causal.stamp
             (Option.get (System.causal s))
             ~now:(System.now s) ~partition:0 ~port:0) );
    ( "a pending schedule request",
      "schedule",
      fun s ->
        Result.get_ok
          (System.request_schedule s (Air_model.Ident.Schedule_id.make 1)) )
  ]

let each_section_sees_its_state () =
  check
    Alcotest.(option string)
    "modules run alike" None
    (Observe.first_difference (Observe.system (make ()))
       (Observe.system (make ())));
  List.iter
    (fun (change, section, apply) ->
      let changed = make () in
      apply changed;
      check
        Alcotest.(option string)
        change (Some section)
        (Observe.first_difference (Observe.system (make ()))
           (Observe.system changed)))
    changes

(* Equal counts, one event at another instant: the trace section, and
   the helper renders the first retained event that differs. *)
let trace_difference_names_the_event () =
  let late = make ~ticks:250 () in
  System.note_fault late ~label:"x";
  let early = make ~ticks:249 () in
  System.note_fault early ~label:"x";
  System.run early ~ticks:1;
  match
    Observed.difference (Observed.of_system early) (Observed.of_system late)
  with
  | None -> Alcotest.fail "a shifted event went unseen"
  | Some d ->
    check Alcotest.bool d true
      (String.starts_with ~prefix:"trace differs: retained event" d
      && Astring_contains.contains d "is [248] FAULT INJECTED: x vs [249]")

let suite =
  [ Alcotest.test_case "each section sees its state" `Quick
      each_section_sees_its_state;
    Alcotest.test_case "a trace difference names the event" `Quick
      trace_difference_names_the_event ]
