(* Module runtime state and lifecycle — the bottom layer of the executive
   decomposition. [Runtime] owns the static configuration types, the live
   system record (PMK lanes, router, protection, trace, per-partition POS +
   PAL + APEX state), partition lifecycle (mode changes, restarts,
   initialization), Health Monitor error reporting and the queuing-port
   delivery notification. Script interpretation lives in [Interp],
   construction in [Boot], and the clock-tick executive in [System]. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air_spatial
open Ident

type intra_object =
  | Semaphore_object of {
      name : string;
      initial : int;
      maximum : int;
      discipline : Intra.discipline;
    }
  | Event_object of { name : string }
  | Blackboard_object of { name : string; max_message_size : int }
  | Buffer_object of {
      name : string;
      depth : int;
      max_message_size : int;
      discipline : Intra.discipline;
    }

type partition_setup = {
  partition : Partition.t;
  scripts : Script.t array;
  policy : Kernel.policy;
  store : Deadline_store.impl;
  autostart : bool array;
  memory_requests : Memory.request list;
  intra_objects : intra_object list;
  error_handler : string option;
}

let default_memory_requests =
  [ { Memory.req_section = Memory.Code; req_size = 16384 };
    { Memory.req_section = Memory.Data; req_size = 16384 };
    { Memory.req_section = Memory.Stack; req_size = 16384 } ]

let partition_setup ?(policy = Kernel.Priority_preemptive)
    ?(store = Deadline_store.Linked_list_impl) ?(autostart = [])
    ?(memory_requests = default_memory_requests) ?(intra_objects = [])
    ?error_handler partition scripts =
  let n = Partition.process_count partition in
  if List.length scripts <> n then
    invalid_arg
      "System.partition_setup: one script per process is required";
  let autostart_flags =
    Array.init n (fun q ->
        let name = partition.Partition.processes.(q).Process.name in
        match List.assoc_opt name autostart with
        | Some flag -> flag
        | None -> true)
  in
  List.iter
    (fun (name, _) ->
      if Option.is_none (Partition.find_process partition name) then
        invalid_arg
          (Printf.sprintf
             "System.partition_setup: autostart names unknown process %S"
             name))
    autostart;
  (match error_handler with
  | Some name when Option.is_none (Partition.find_process partition name) ->
    invalid_arg
      (Printf.sprintf
         "System.partition_setup: error handler names unknown process %S"
         name)
  | Some _ | None -> ());
  { partition;
    scripts = Array.of_list scripts;
    policy;
    store;
    autostart = autostart_flags;
    memory_requests;
    intra_objects;
    error_handler }

type config = {
  partitions : partition_setup list;
  schedules : Schedule.t list;
  initial_schedule : Schedule_id.t option;
  network : Port.network;
  hm_tables : Hm.tables;
  trace_capacity : int option;
  recorder : Air_obs.Span.t option;
  telemetry : Air_obs.Telemetry.config option;
  causal : Air_obs.Causal.t option;
  cores : int option;
  contention : Contention.config option;
}

let config ?initial_schedule ?(network = { Port.ports = []; channels = [] })
    ?(hm_tables = Hm.default_tables) ?(trace_capacity = Some 16_384)
    ?recorder ?telemetry ?causal ?cores ?contention ~partitions ~schedules () =
  (match cores with
  | Some n when n <= 0 ->
    invalid_arg "System.config: core count must be positive"
  | Some _ | None -> ());
  { partitions; schedules; initial_schedule; network; hm_tables;
    trace_capacity; recorder; telemetry; causal; cores; contention }

type task = {
  mutable pc : int;
  mutable compute_left : int;
  ports : Router.port array;
      (* By program counter: the router ID of the port the action there
         names, resolved once at boot; -1 where the action names no port
         or one the network lacks. *)
}

type prt = {
  setup : partition_setup;
  kernel : Kernel.t;
  intra : Intra.t;
  pal : Pal.t;
  env : Apex.env;
  tasks : task array;
  announce_to_pos : now:Time.t -> elapsed:Time.t -> unit;
      (* The native POS clock-tick announcement callback handed to
         [Pal.announce_ticks], built once at boot so the per-tick drive
         path does not allocate a fresh closure. *)
  mutable mode : Partition.mode;
  mutable jitter_left : int;
      (* Active ticks whose PAL clock-tick announcement is still being
         suppressed by an injected clock-jitter fault. *)
  mutable jitter_deferred : int;
      (* Elapsed ticks accumulated while suppressed; announced as one
         catch-up burst when the jitter window ends. *)
}

type t = {
  cfg : config;
  lane : Pmk_mc.t;
  hm : Hm.t;
  router : Router.t;
  protection : Protection.t;
  trace : Event.t Trace.t;
  metrics : Air_obs.Metrics.t;
  events : int array;
      (* Per-kind totals of every emitted event, indexed by [Event.kind];
         unlike the (possibly bounded) trace they never decay. *)
  telemetry : Air_obs.Telemetry.t option;
  contention : Contention.t option;
  partitions : prt array;
  mutable halt_reason : string option;
}

let now t = Int.max 0 (Pmk_mc.ticks t.lane)

let emit t ev =
  Trace.record t.trace (now t) ev;
  let k = Event.kind ev in
  t.events.(k) <- t.events.(k) + 1

(* Flight recorder: a Health Monitor handler invocation becomes a span on
   the affected track (simulated time does not advance during handling, so
   the span is zero-width — it still shows nesting and ordering). *)
let with_hm_span t ~track ~code name f =
  match t.cfg.recorder with
  | None -> f ()
  | Some r ->
    Air_obs.Span.begin_span r ~now:(now t) ~track
      ~detail:(Error.code_label code) name;
    let result = f () in
    Air_obs.Span.end_span r ~now:(now t) ~track;
    result

let prt_of t pid = t.partitions.(Partition_id.index pid)

(* Telemetry: count every Health Monitor invocation against the frame
   being accumulated (module-level errors carry no partition). *)
let note_hm_invocation t ~partition =
  match t.telemetry with
  | None -> ()
  | Some tel -> Air_obs.Telemetry.on_hm_error tel ~partition

(* --- Partition lifecycle ----------------------------------------------- *)

let reset_task task =
  task.pc <- 0;
  task.compute_left <- 0

let set_mode t prt mode =
  if not (Partition.mode_equal prt.mode mode) then begin
    prt.mode <- mode;
    emit t
      (Event.Partition_mode_change
         { partition = prt.setup.partition.Partition.id; mode })
  end

(* START wrapper: the task's program counter must restart from the entry
   point whenever the process (re)starts. *)
let start_process_internal t prt q ~delay =
  reset_task prt.tasks.(q);
  Kernel.start prt.kernel ~now:(now t) ~delay q

let shutdown_partition t prt =
  Kernel.stop_all prt.kernel;
  Intra.reset prt.intra;
  Pal.clear_deadlines prt.pal;
  Array.iter reset_task prt.tasks;
  prt.jitter_left <- 0;
  prt.jitter_deferred <- 0;
  set_mode t prt Partition.Idle

let begin_restart t prt mode =
  Kernel.stop_all prt.kernel;
  (* Cold start wipes the partition's context — including intrapartition
     objects — while a warm start preserves it (ARINC 653: the two modes
     differ in the initial context, paper Sect. 3.1). *)
  (match mode with
  | Partition.Cold_start -> Intra.reset prt.intra
  | Partition.Warm_start | Partition.Normal | Partition.Idle ->
    Intra.clear_mailboxes prt.intra);
  Pal.clear_deadlines prt.pal;
  Array.iter reset_task prt.tasks;
  prt.jitter_left <- 0;
  prt.jitter_deferred <- 0;
  set_mode t prt mode

(* Partition initialization: performed the first time the partition is
   dispatched while in a starting mode — start the autostart processes and
   enter normal mode. *)
let create_intra_objects prt =
  (* Idempotent: after a warm restart the objects already exist and the
     Already_exists outcome is expected. *)
  List.iter
    (fun obj ->
      ignore
        (match obj with
        | Semaphore_object { name; initial; maximum; discipline } ->
          Intra.create_semaphore prt.intra ~name ~initial ~maximum discipline
        | Event_object { name } -> Intra.create_event prt.intra ~name
        | Blackboard_object { name; max_message_size } ->
          Intra.create_blackboard prt.intra ~name ~max_message_size
        | Buffer_object { name; depth; max_message_size; discipline } ->
          Intra.create_buffer prt.intra ~name ~depth ~max_message_size
            discipline))
    prt.setup.intra_objects

let initialize_partition t prt =
  create_intra_objects prt;
  Array.iteri
    (fun q auto ->
      if auto then ignore (start_process_internal t prt q ~delay:Time.zero))
    prt.setup.autostart;
  set_mode t prt Partition.Normal

(* --- Health Monitor reporting ------------------------------------------- *)

let apply_partition_action t prt (action : Error.partition_action) =
  emit t
    (Event.Hm_partition_action
       { partition = prt.setup.partition.Partition.id; action });
  match action with
  | Error.Partition_ignore -> ()
  | Error.Partition_idle -> shutdown_partition t prt
  | Error.Partition_warm_restart -> begin_restart t prt Partition.Warm_start
  | Error.Partition_cold_restart -> begin_restart t prt Partition.Cold_start

let apply_module_action t (action : Error.module_action) =
  emit t (Event.Hm_module_action { action });
  match action with
  | Error.Module_ignore -> ()
  | Error.Module_shutdown ->
    t.halt_reason <- Some "health monitor: module shutdown";
    emit t (Event.Module_halt { reason = "health monitor: module shutdown" })
  | Error.Module_reset ->
    Array.iter (fun prt -> begin_restart t prt Partition.Cold_start)
      t.partitions

let rec apply_process_action t prt q (action : Error.process_action) =
  emit t
    (Event.Hm_process_action
       { process = Partition.process_id prt.setup.partition q; action });
  match action with
  | Error.Ignore_error -> ()
  | Error.Log_then (_, _) ->
    (* The HM resolves thresholds before returning an action; a Log_then
       reaching this point behaves as its ultimate action. *)
    (match action with
    | Error.Log_then (_, inner) -> apply_process_action t prt q inner
    | _ -> ())
  | Error.Restart_process ->
    ignore (Kernel.stop prt.kernel q);
    ignore (start_process_internal t prt q ~delay:Time.zero)
  | Error.Stop_process -> ignore (Kernel.stop prt.kernel q)
  | Error.Stop_partition_of_process -> shutdown_partition t prt
  | Error.Restart_partition_of_process mode -> begin_restart t prt mode

let report_process_error t prt ~process code ~detail =
  let partition = prt.setup.partition.Partition.id in
  emit t
    (Event.Hm_error
       { level = Error.Process_level;
         code;
         partition = Some partition;
         process = Some (Partition.process_id prt.setup.partition process);
         detail });
  note_hm_invocation t ~partition:(Some (Partition_id.index partition));
  with_hm_span t ~track:(Partition_id.index partition) ~code
    "hm.process-error" (fun () ->
      let action = Hm.resolve_process_error t.hm ~partition ~process ~code in
      apply_process_action t prt process action;
      (* Invoke the partition's application error handler, if configured and
         not already active (and unless the error came from the handler
         itself). *)
      match prt.setup.error_handler with
      | Some name -> (
        match Kernel.find_by_name prt.kernel name with
        | Some handler
          when handler <> process
               && Process.state_equal (Kernel.state prt.kernel handler)
                    Process.Dormant ->
          ignore (start_process_internal t prt handler ~delay:Time.zero)
        | Some _ | None -> ())
      | None -> ())

let report_partition_error t prt code ~detail =
  let partition = prt.setup.partition.Partition.id in
  emit t
    (Event.Hm_error
       { level = Error.Partition_level;
         code;
         partition = Some partition;
         process = None;
         detail });
  note_hm_invocation t ~partition:(Some (Partition_id.index partition));
  with_hm_span t ~track:(Partition_id.index partition) ~code
    "hm.partition-error" (fun () ->
      let action = Hm.resolve_partition_error t.hm ~partition ~code in
      apply_partition_action t prt action)

(* --- Shared-resource charging (contention model) ------------------------ *)

(* Every memory/TLB touch and (optionally) compute tick flows through
   here. With no contention model this is a single match on [None]; with
   one, plain integer account updates — the only allocation is the HM
   detail string at the (once-per-window-per-partition) budget blow,
   which escalates as a temporal-degradation error exactly like a
   watchdog breach. *)
let charge_shared_access t prt ~cost =
  match t.contention with
  | None -> ()
  | Some c ->
    let pi = Partition_id.index prt.setup.partition.Partition.id in
    (match t.telemetry with
    | Some tel -> Air_obs.Telemetry.on_mem_demand tel ~partition:pi ~cost
    | None -> ());
    if Contention.charge c ~partition:pi ~cost then
      report_partition_error t prt Error.Temporal_degradation
        ~detail:
          (Printf.sprintf
             "memory-bandwidth budget blown: window demand %d > budget %d"
             (Contention.demand c pi) (Contention.budget c pi))

(* [ticks] consumed compute ticks in one charge: the executive's compute
   skip charges a whole span at once, which equals [ticks] single charges
   because the span ends before any threshold. *)
let charge_compute t prt ~ticks =
  match t.contention with
  | None -> ()
  | Some c ->
    let cost = (Contention.configuration c).Contention.compute_cost in
    if cost > 0 then charge_shared_access t prt ~cost:(cost * ticks)

let report_module_error t code ~detail =
  emit t
    (Event.Hm_error
       { level = Error.Module_level;
         code;
         partition = None;
         process = None;
         detail });
  note_hm_invocation t ~partition:None;
  with_hm_span t ~track:(-1) ~code "hm.module-error" (fun () ->
      apply_module_action t (Hm.resolve_module_error t.hm ~code))

(* --- Queuing-port delivery notification -------------------------------- *)

(* A queuing message arrived at [port]; wake its longest-blocked receiver
   and hand it the message through its partition's mailbox. *)
let notify_port_delivery t port =
  let cfg = Router.port_config t.router port in
  let owner = prt_of t cfg.Port.partition in
  let q = Kernel.port_waiter owner.kernel port in
  if q >= 0 then
    match
      Router.receive_queuing_id ~now:(now t) t.router
        ~caller:cfg.Port.partition ~port
    with
    | Ok (Some msg) ->
      emit t
        (Event.Port_receive { port = cfg.Port.name; bytes = Bytes.length msg });
      (match t.cfg.recorder with
      | None -> ()
      | Some r ->
        Air_obs.Span.instant r ~now:(now t)
          ~track:(Partition_id.index cfg.Port.partition) ~sub:q
          ~detail:cfg.Port.name "ipc.deliver");
      (* Deliver through the partition mailbox, as for buffers. *)
      Intra.deliver owner.intra ~process:q msg;
      Kernel.wake owner.kernel ~now:(now t) q ~timed_out:false
    | Ok None | Error _ -> ()
