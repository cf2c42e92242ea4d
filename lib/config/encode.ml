open Air_sim
open Air_model
open Air_pos
open Air_ipc

let atom s = Sexp.Atom s
let list l = Sexp.List l
let field name args = list (atom name :: args)
let int n = atom (string_of_int n)

(* A list-valued field, omitted when empty. *)
let non_empty name = function [] -> None | items -> Some (field name items)

let time t = if Time.is_infinite t then atom "infinite" else int t

let timeout t = if t = Time.zero then atom "poll" else time t

(* A value's keyword: the first entry of its table that maps to it. *)
let keyword table v =
  match List.find_opt (fun (_, x) -> x = v) table with
  | Some (k, _) -> atom k
  | None -> invalid_arg "Encode: value has no keyword"

(* Names are positional: partition index i refers to the i-th declared
   partition, schedule index likewise. *)
type names = { partitions : string array; schedules : string array }

let name_at what names i =
  if i < 0 || i >= Array.length names then
    invalid_arg ("Encode: " ^ what ^ " index out of range")
  else atom names.(i)

let partition_name names pid =
  name_at "partition" names.partitions (Ident.Partition_id.index pid)

let schedule_name names i = name_at "schedule" names.schedules i

let encode_action names = function
  | Script.Compute n -> field "compute" [ int n ]
  | Script.Periodic_wait -> list [ atom "periodic-wait" ]
  | Script.Timed_wait d -> field "timed-wait" [ time d ]
  | Script.Replenish b -> field "replenish" [ time b ]
  | Script.Write_sampling (port, msg) ->
    field "write-sampling" [ atom port; atom msg ]
  | Script.Read_sampling port -> field "read-sampling" [ atom port ]
  | Script.Send_queuing (port, msg) ->
    field "send-queuing" [ atom port; atom msg ]
  | Script.Receive_queuing (port, tmo) ->
    field "receive-queuing" [ atom port; timeout tmo ]
  | Script.Wait_semaphore (name, tmo) ->
    field "wait-semaphore" [ atom name; timeout tmo ]
  | Script.Signal_semaphore name -> field "signal-semaphore" [ atom name ]
  | Script.Wait_event (name, tmo) ->
    field "wait-event" [ atom name; timeout tmo ]
  | Script.Set_event name -> field "set-event" [ atom name ]
  | Script.Reset_event name -> field "reset-event" [ atom name ]
  | Script.Display_blackboard (name, msg) ->
    field "display-blackboard" [ atom name; atom msg ]
  | Script.Clear_blackboard name -> field "clear-blackboard" [ atom name ]
  | Script.Read_blackboard (name, tmo) ->
    field "read-blackboard" [ atom name; timeout tmo ]
  | Script.Send_buffer (name, msg, tmo) ->
    field "send-buffer" [ atom name; atom msg; timeout tmo ]
  | Script.Receive_buffer (name, tmo) ->
    field "receive-buffer" [ atom name; timeout tmo ]
  | Script.Read_memory addr -> field "read-memory" [ int addr ]
  | Script.Write_memory addr -> field "write-memory" [ int addr ]
  | Script.Log msg -> field "log" [ atom msg ]
  | Script.Raise_application_error msg -> field "raise-error" [ atom msg ]
  | Script.Request_schedule i ->
    field "request-schedule" [ schedule_name names i ]
  | Script.Log_schedule_status -> list [ atom "log-schedule-status" ]
  | Script.Suspend_self tmo -> field "suspend-self" [ timeout tmo ]
  | Script.Resume_process name -> field "resume" [ atom name ]
  | Script.Start_other name -> field "start" [ atom name ]
  | Script.Stop_other name -> field "stop" [ atom name ]
  | Script.Stop_self -> list [ atom "stop-self" ]
  | Script.Disable_interrupts -> list [ atom "disable-interrupts" ]
  | Script.Lock_preemption -> list [ atom "lock-preemption" ]
  | Script.Unlock_preemption -> list [ atom "unlock-preemption" ]

let encode_periodicity = function
  | Process.Aperiodic -> atom "aperiodic"
  | Process.Periodic t -> time t
  | Process.Sporadic t -> list [ atom "sporadic"; time t ]

let encode_process names (spec : Process.spec) (script : Script.t) autostart =
  list
    (atom "process"
    :: field "name" [ atom spec.Process.name ]
    :: field "period" [ encode_periodicity spec.Process.periodicity ]
    :: field "capacity" [ time spec.Process.time_capacity ]
    :: field "wcet" [ time spec.Process.wcet ]
    :: field "priority" [ int spec.Process.base_priority ]
    :: field "autostart" [ keyword Keywords.booleans autostart ]
    :: field "script"
         (List.map (encode_action names) (Array.to_list script.Script.body))
    :: [ field "on-end" [ keyword Keywords.on_end script.Script.on_end ] ])

let encode_policy = function
  | Kernel.Priority_preemptive -> atom "priority"
  | Kernel.Round_robin { quantum } ->
    list [ atom "round-robin"; int quantum ]

let encode_discipline = keyword Keywords.discipline

let encode_intra_object = function
  | Air.System.Semaphore_object { name; initial; maximum; discipline } ->
    list
      [ atom "semaphore"; atom name; int initial; int maximum;
        encode_discipline discipline ]
  | Air.System.Event_object { name } -> list [ atom "event"; atom name ]
  | Air.System.Blackboard_object { name; max_message_size } ->
    list [ atom "blackboard"; atom name; int max_message_size ]
  | Air.System.Buffer_object { name; depth; max_message_size; discipline } ->
    list
      [ atom "buffer"; atom name; int depth; int max_message_size;
        encode_discipline discipline ]

let encode_partition names (setup : Air.System.partition_setup) =
  let p = setup.Air.System.partition in
  let processes =
    List.init (Array.length p.Partition.processes) (fun q ->
        encode_process names
          p.Partition.processes.(q)
          setup.Air.System.scripts.(q)
          setup.Air.System.autostart.(q))
  in
  list
    (atom "partition"
    :: field "name" [ atom p.Partition.name ]
    :: field "kind" [ keyword Keywords.partition_kind p.Partition.kind ]
    :: field "policy" [ encode_policy setup.Air.System.policy ]
    :: field "deadline-store"
         [ keyword Keywords.deadline_store setup.Air.System.store ]
    :: field "processes" processes
    :: List.filter_map Fun.id
         [ non_empty "objects"
             (List.map encode_intra_object setup.Air.System.intra_objects);
           Option.map
             (fun name -> field "error-handler" [ atom name ])
             setup.Air.System.error_handler ])

let encode_schedule names (s : Schedule.t) =
  let req (r : Schedule.requirement) =
    list
      (atom "req"
      :: [ field "partition" [ partition_name names r.partition ];
           field "cycle" [ time r.cycle ];
           field "duration" [ time r.duration ] ])
  in
  let win (w : Schedule.window) =
    list
      (atom "window"
      :: [ field "partition" [ partition_name names w.partition ];
           field "offset" [ time w.offset ];
           field "duration" [ time w.duration ] ])
  in
  let action (p, a) =
    list [ partition_name names p; keyword Keywords.change_action a ]
  in
  list
    (atom "schedule"
    :: field "name" [ atom s.Schedule.name ]
    :: field "mtf" [ time s.Schedule.mtf ]
    :: field "requirements" (List.map req s.Schedule.requirements)
    :: field "windows" (List.map win s.Schedule.windows)
    :: Option.to_list
         (non_empty "change-actions"
            (List.map action s.Schedule.change_actions)))

let encode_port names (c : Port.config) =
  let common =
    [ field "name" [ atom c.Port.name ];
      field "partition" [ partition_name names c.Port.partition ];
      field "direction" [ keyword Keywords.direction c.Port.direction ];
      field "max-size" [ int c.Port.max_message_size ] ]
  in
  match c.Port.kind with
  | Port.Sampling { refresh } ->
    list (atom "sampling-port" :: common @ [ field "refresh" [ time refresh ] ])
  | Port.Queuing { depth } ->
    list (atom "queuing-port" :: common @ [ field "depth" [ int depth ] ])

let encode_channel (ch : Port.channel) =
  list
    (atom "channel"
    :: [ field "source" [ atom ch.Port.source ];
         field "destinations" (List.map atom ch.Port.destinations) ])

let rec encode_process_action = function
  | Error.Restart_partition_of_process mode ->
    list [ atom "restart-partition"; keyword Keywords.restart_mode mode ]
  | Error.Log_then (n, inner) ->
    list [ atom "log-then"; int n; encode_process_action inner ]
  | a -> keyword Keywords.process_action a

(* process-errors and partition-errors entries: the specific ones, then
   the "*" wildcard defaults. *)
let encode_hm_entries names action specific defaults =
  let entry p (code, a) =
    list [ p; keyword Keywords.error_code code; action a ]
  in
  List.map (fun (p, code, a) -> entry (partition_name names p) (code, a))
    specific
  @ List.map (entry (atom "*")) defaults

let encode_hm names (tables : Air.Hm.tables) =
  match
    List.filter_map Fun.id
      [ non_empty "process-errors"
          (encode_hm_entries names encode_process_action
             tables.Air.Hm.process_actions tables.Air.Hm.process_defaults);
        non_empty "partition-errors"
          (encode_hm_entries names (keyword Keywords.partition_action)
             tables.Air.Hm.partition_actions tables.Air.Hm.partition_defaults);
        non_empty "module-errors"
          (List.map
             (fun (code, a) ->
               list
                 [ keyword Keywords.error_code code;
                   keyword Keywords.module_action a ])
             tables.Air.Hm.module_actions) ]
  with
  | [] -> None
  | groups -> Some (field "hm" groups)

let encode_watchdog schedule (w : Air_obs.Telemetry.watchdog) =
  let threshold name v =
    match v with None -> [] | Some n -> [ field name [ int n ] ]
  in
  list
    (atom "watchdog"
    :: field "schedule" [ schedule ]
    :: List.concat
         [ threshold "min-slack" w.Air_obs.Telemetry.min_slack;
           threshold "max-jitter-p99" w.Air_obs.Telemetry.max_jitter_p99;
           threshold "max-catch-up" w.Air_obs.Telemetry.max_catch_up;
           threshold "max-deadline-misses"
             w.Air_obs.Telemetry.max_deadline_misses ])

let encode_telemetry names (c : Air_obs.Telemetry.config) =
  let retention =
    match c.Air_obs.Telemetry.retention with
    | None -> []
    | Some r -> [ field "retention" [ int r ] ]
  in
  let watchdogs =
    (if Air_obs.Telemetry.watchdog_is_trivial
          c.Air_obs.Telemetry.default_watchdog
     then []
     else
       [ encode_watchdog (atom "*") c.Air_obs.Telemetry.default_watchdog ])
    @ List.map
        (fun (i, w) -> encode_watchdog (schedule_name names i) w)
        c.Air_obs.Telemetry.schedule_watchdogs
  in
  field "telemetry"
    (retention @ Option.to_list (non_empty "watchdogs" watchdogs))

let encode_contention names (c : Air_spatial.Contention.config) =
  let budget =
    field "default" [ int c.Air_spatial.Contention.default_budget ]
    :: List.map
         (fun (i, b) -> list [ name_at "partition" names.partitions i; int b ])
         c.Air_spatial.Contention.budgets
  in
  let curve =
    List.map
      (fun (t, s) -> list [ int t; int s ])
      c.Air_spatial.Contention.curve
  in
  field "contention"
    (field "budget" budget
     :: field "curve" curve
     :: field "compute-cost" [ int c.Air_spatial.Contention.compute_cost ]
     :: [ field "pressure-decay"
            [ int c.Air_spatial.Contention.pressure_decay_permille ] ])

let encode (cfg : Air.System.config) =
  let names =
    { partitions =
        Array.of_list
          (List.map
             (fun (s : Air.System.partition_setup) ->
               s.Air.System.partition.Partition.name)
             cfg.Air.System.partitions);
      schedules =
        Array.of_list
          (List.map (fun (s : Schedule.t) -> s.Schedule.name)
             cfg.Air.System.schedules) }
  in
  (* Every field the loader builds [Air.System.config] from; the (faults …)
     campaigns are not part of the configuration. *)
  list
    (atom "air-system"
    :: field "partitions"
         (List.map (encode_partition names) cfg.Air.System.partitions)
    :: field "schedules"
         (List.map (encode_schedule names) cfg.Air.System.schedules)
    :: List.filter_map Fun.id
         [ non_empty "ports"
             (List.map (encode_port names) cfg.Air.System.network.Port.ports);
           non_empty "channels"
             (List.map encode_channel cfg.Air.System.network.Port.channels);
           Option.map
             (fun id ->
               field "initial-schedule"
                 [ schedule_name names (Ident.Schedule_id.index id) ])
             cfg.Air.System.initial_schedule;
           encode_hm names cfg.Air.System.hm_tables;
           Option.map (encode_telemetry names) cfg.Air.System.telemetry;
           Option.map
             (fun c ->
               field "causal"
                 [ field "retention" [ int (Air_obs.Causal.capacity c) ] ])
             cfg.Air.System.causal;
           Option.map (encode_contention names) cfg.Air.System.contention;
           Option.map (fun n -> field "cores" [ int n ]) cfg.Air.System.cores ])

let to_string cfg = Sexp.to_string (encode cfg)
