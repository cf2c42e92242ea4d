(* Module construction — builds the [Runtime.t] record from a [config]:
   shared observability registries, the PMK lanes, the Health Monitor,
   the interpartition router, the spatial-protection tables and one
   (POS kernel, PAL, APEX environment) triple per partition.

   Every module runs on a {!Pmk_mc}. A single-core module is one lane over
   a {!Pmk} built from the configured tables themselves. Multicore
   ([cores = Some n], n > 1) shards every scheduling table over [n] lanes
   with {!Air_model.Multicore.shard}; window offsets are preserved, so the
   sharded module is time-faithful to the single-core one and mode-based
   switches are broadcast to every lane. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air_spatial
open Ident
open Runtime

(* The router ID of the port a script action names, once per action; -1
   for actions naming none (and, from [Router.resolve], for a name the
   network lacks — the service then fails as for an unknown port). *)
let action_port router (action : Script.action) =
  match action with
  | Script.Write_sampling (port, _)
  | Script.Read_sampling port
  | Script.Send_queuing (port, _)
  | Script.Receive_queuing (port, _) ->
    Router.resolve router port
  | _ -> -1

(* Every module registers the same [hm.errors.code.*] names: rendered
   once. *)
let code_names =
  List.map
    (fun code -> (code, Format.asprintf "hm.errors.code.%a" Error.pp_code code))
    Error.all_codes

(* Every module metric whose fact another structure already holds is a
   view of that structure, read whenever the registry is read: the per-kind
   event counts, lane 0's clock, each partition's deadline store, the
   Health Monitor's occurrence table and the bounded recorders' drop
   counts. Nothing on the tick path counts these a second time. *)
let register_views t =
  let counter = Air_obs.Metrics.counter_view t.metrics in
  let gauge = Air_obs.Metrics.gauge_view t.metrics in
  let events label =
    let rec kind k =
      if String.equal Event.labels.(k) label then k else kind (k + 1)
    in
    let k = kind 0 in
    fun () -> t.events.(k)
  in
  counter "pmk.ticks" (fun () -> Pmk_mc.ticks t.lane + 1);
  counter "pmk.context_switches" (events "context-switch");
  counter "pmk.schedule_switches" (events "schedule-switch");
  counter "pal.deadlines_registered" (events "deadline-registered");
  counter "pal.deadlines_unregistered" (events "deadline-unregistered");
  counter "pal.deadline_violations" (events "deadline-violation");
  Array.iteri
    (fun i prt ->
      gauge (Printf.sprintf "pal.store_size.p%d" i) (fun () ->
          Pal.deadline_count prt.pal))
    t.partitions;
  counter "hm.errors.process" (fun () ->
      Hm.level_count t.hm Error.Process_level);
  counter "hm.errors.partition" (fun () ->
      Hm.level_count t.hm Error.Partition_level);
  counter "hm.errors.module" (fun () -> Hm.level_count t.hm Error.Module_level);
  List.iter
    (fun (code, name) -> counter name (fun () -> Hm.code_count t.hm code))
    code_names;
  counter "hm.actions_taken" (fun () -> Hm.actions_taken t.hm);
  Option.iter
    (fun r -> gauge "recorder.dropped_spans" (fun () -> Air_obs.Span.dropped r))
    t.cfg.recorder;
  Option.iter
    (fun c ->
      gauge "causal.dropped_records" (fun () -> Air_obs.Causal.dropped c))
    t.cfg.causal

let create (cfg : config) =
  if cfg.partitions = [] then
    invalid_arg "System.create: at least one partition is required";
  let partition_count = List.length cfg.partitions in
  List.iteri
    (fun i setup ->
      if Partition_id.index setup.partition.Partition.id <> i then
        invalid_arg
          "System.create: partition identifiers must be dense and in order")
    cfg.partitions;
  (* One registry shared by every component, so the end-of-run snapshot
     covers the whole module in a single pass. *)
  let metrics = Air_obs.Metrics.create () in
  let telemetry =
    Option.map
      (fun c -> Air_obs.Telemetry.create ~config:c ~partition_count ())
      cfg.telemetry
  in
  let lane =
    match cfg.cores with
    | Some n when n > 1 ->
      let tables = List.map (Multicore.shard ~cores:n) cfg.schedules in
      Pmk_mc.create ~metrics ?recorder:cfg.recorder ?telemetry
        ?initial_schedule:cfg.initial_schedule ~partition_count tables
    | Some _ | None ->
      Pmk_mc.of_pmk
        (Pmk.create ~metrics ?recorder:cfg.recorder ?telemetry
           ?initial_schedule:cfg.initial_schedule ~partition_count
           cfg.schedules)
  in
  (* Shared-resource contention model: lane-local accounts sized to the
     executive's core count; telemetry (if any) switches its interference
     fields on and learns every partition's budget for the first window
     (co-runner pressure starts at zero — no window has closed yet). *)
  let contention =
    Option.map
      (fun c ->
        Contention.create ~partitions:partition_count
          ~lanes:(Pmk_mc.core_count lane) c)
      cfg.contention
  in
  (match (contention, telemetry) with
  | Some c, Some tel ->
    Air_obs.Telemetry.enable_interference tel;
    for p = 0 to partition_count - 1 do
      Air_obs.Telemetry.set_interference_window tel ~partition:p
        ~budget:(Contention.budget c p) ~co_pressure:0
    done
  | (Some _ | None), (Some _ | None) -> ());
  let hm = Hm.create ~tables:cfg.hm_tables () in
  let router =
    Router.create ~metrics ?recorder:cfg.recorder ?causal:cfg.causal
      cfg.network
  in
  (match telemetry with
  | None -> ()
  | Some tel ->
    Router.set_delivery_observer router (fun ~latency ->
        Air_obs.Telemetry.on_ipc_delivery tel ~latency));
  let maps =
    Memory.allocate
      (List.map
         (fun setup ->
           (setup.partition.Partition.id, setup.memory_requests))
         cfg.partitions)
  in
  let protection =
    Protection.create ~metrics ~contexts:(partition_count + 1) maps
  in
  let trace =
    Trace.create ~codec:Event.codec ?capacity:cfg.trace_capacity ()
  in
  let events = Array.make (Array.length Event.labels) 0 in
  (* The system record is knotted with the per-partition closures through
     this forward reference. *)
  let system_ref = ref None in
  let the_system () =
    match !system_ref with
    | Some s -> s
    | None -> failwith "System: used before initialization completed"
  in
  let make_prt setup =
    let pid = setup.partition.Partition.id in
    let pal =
      Pal.create ?recorder:cfg.recorder ?telemetry ~store:setup.store
        ~partition:pid ()
    in
    let emit_ev ev =
      let t = the_system () in
      emit t ev
    in
    let hooks =
      { Kernel.register_deadline =
          (fun ~process deadline ->
            Pal.register_deadline pal ~process deadline;
            emit_ev
              (Event.Deadline_registered
                 { process = Partition.process_id setup.partition process;
                   deadline }));
        unregister_deadline =
          (fun ~process ->
            Pal.unregister_deadline pal ~process;
            emit_ev
              (Event.Deadline_unregistered
                 { process = Partition.process_id setup.partition process }));
        on_state_change =
          (fun ~process state ->
            emit_ev
              (Event.Process_state_change
                 { process = Partition.process_id setup.partition process;
                   state })) }
    in
    let kernel =
      Kernel.create ~partition:pid ~policy:setup.policy ~hooks
        setup.partition.Partition.processes
    in
    let intra = Intra.create kernel in
    let n = Partition.process_count setup.partition in
    let tasks =
      Array.init n (fun q ->
          let body = setup.scripts.(q).Script.body in
          { pc = 0;
            compute_left = 0;
            ports = Array.map (action_port router) body })
    in
    let rec prt =
      { setup;
        kernel;
        intra;
        pal;
        announce_to_pos =
          (fun ~now ~elapsed:_ -> Kernel.announce_ticks kernel ~now);
        env =
          { Apex.partition = setup.partition;
            kernel;
            intra;
            router;
            lane;
            now = (fun () -> now (the_system ()));
            emit = emit_ev;
            report_process_error =
              (fun ~process code ~detail ->
                report_process_error (the_system ()) prt ~process code
                  ~detail);
            report_partition_error =
              (fun code ~detail ->
                report_partition_error (the_system ()) prt code ~detail);
            notify_port_delivery =
              (fun port -> notify_port_delivery (the_system ()) port);
            mode = (fun () -> prt.mode);
            set_mode =
              (fun mode ->
                let t = the_system () in
                match mode with
                | Partition.Normal -> set_mode t prt Partition.Normal
                | Partition.Idle -> shutdown_partition t prt
                | Partition.Cold_start | Partition.Warm_start ->
                  begin_restart t prt mode) };
        tasks;
        mode = setup.partition.Partition.initial_mode;
        jitter_left = 0;
        jitter_deferred = 0 }
    in
    prt
  in
  let partitions =
    Array.of_list (List.map make_prt cfg.partitions)
  in
  let t =
    { cfg; lane; hm; router; protection; trace; metrics; events; telemetry;
      contention; partitions; halt_reason = None }
  in
  system_ref := Some t;
  register_views t;
  t
