open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Decode

(* Name → index environments built from declaration order. *)
type env = {
  partition_names : string list;
  schedule_names : string list;
}

let index_of env_list kind name =
  let rec go i = function
    | [] -> error "unknown %s %s" kind name
    | n :: rest -> if String.equal n name then Ok i else go (i + 1) rest
  in
  go 0 env_list

let partition_id env name =
  let* i = index_of env.partition_names "partition" name in
  Ok (Ident.Partition_id.make i)

(* The key of a table with one default entry and entries for declared
   names: [default] (for instance "*") gives [None], a declared name its
   index. *)
let default_or_index ~default names kind s =
  let* name = atom s in
  if String.equal name default then Ok None
  else
    let* i = index_of names kind name in
    Ok (Some i)

(* Splits such a table into its default and its named entries; a second
   default or a second entry for one name is an error. *)
let default_and_named ~context names entries =
  let rec go default named = function
    | [] -> Ok (default, List.rev named)
    | (None, v) :: rest ->
      if Option.is_some default then error "%s: duplicate default" context
      else go (Some v) named rest
    | (Some i, v) :: rest ->
      if List.mem_assoc i named then
        error "%s: duplicate entry for %s" context (List.nth names i)
      else go default ((i, v) :: named) rest
  in
  go None [] entries

(* Library constructors reject bad values with [Invalid_argument]; report
   the rejection as a decode error naming the form instead. *)
let checked form make =
  match make () with
  | v -> Ok v
  | exception Invalid_argument m -> error "%s: %s" form m

(* --- Scripts ------------------------------------------------------------ *)

let decode_action env s : Script.action t =
  let* tag, args = tag_of s in
  let str x = atom x in
  match (tag, args) with
  | "compute", [ n ] ->
    let* n = int n in
    Ok (Script.Compute n)
  | "periodic-wait", [] -> Ok Script.Periodic_wait
  | "timed-wait", [ d ] ->
    let* d = time d in
    Ok (Script.Timed_wait d)
  | "replenish", [ b ] ->
    let* b = time b in
    Ok (Script.Replenish b)
  | "write-sampling", [ port; msg ] ->
    let* port = str port in
    let* msg = str msg in
    Ok (Script.Write_sampling (port, msg))
  | "read-sampling", [ port ] ->
    let* port = str port in
    Ok (Script.Read_sampling port)
  | "send-queuing", [ port; msg ] ->
    let* port = str port in
    let* msg = str msg in
    Ok (Script.Send_queuing (port, msg))
  | "receive-queuing", [ port; tmo ] ->
    let* port = str port in
    let* tmo = timeout tmo in
    Ok (Script.Receive_queuing (port, tmo))
  | "wait-semaphore", [ name; tmo ] ->
    let* name = str name in
    let* tmo = timeout tmo in
    Ok (Script.Wait_semaphore (name, tmo))
  | "signal-semaphore", [ name ] ->
    let* name = str name in
    Ok (Script.Signal_semaphore name)
  | "wait-event", [ name; tmo ] ->
    let* name = str name in
    let* tmo = timeout tmo in
    Ok (Script.Wait_event (name, tmo))
  | "set-event", [ name ] ->
    let* name = str name in
    Ok (Script.Set_event name)
  | "reset-event", [ name ] ->
    let* name = str name in
    Ok (Script.Reset_event name)
  | "display-blackboard", [ name; msg ] ->
    let* name = str name in
    let* msg = str msg in
    Ok (Script.Display_blackboard (name, msg))
  | "clear-blackboard", [ name ] ->
    let* name = str name in
    Ok (Script.Clear_blackboard name)
  | "read-blackboard", [ name; tmo ] ->
    let* name = str name in
    let* tmo = timeout tmo in
    Ok (Script.Read_blackboard (name, tmo))
  | "send-buffer", [ name; msg; tmo ] ->
    let* name = str name in
    let* msg = str msg in
    let* tmo = timeout tmo in
    Ok (Script.Send_buffer (name, msg, tmo))
  | "receive-buffer", [ name; tmo ] ->
    let* name = str name in
    let* tmo = timeout tmo in
    Ok (Script.Receive_buffer (name, tmo))
  | "read-memory", [ addr ] ->
    let* addr = int addr in
    Ok (Script.Read_memory addr)
  | "write-memory", [ addr ] ->
    let* addr = int addr in
    Ok (Script.Write_memory addr)
  | "log", [ msg ] ->
    let* msg = str msg in
    Ok (Script.Log msg)
  | "raise-error", [ msg ] ->
    let* msg = str msg in
    Ok (Script.Raise_application_error msg)
  | "request-schedule", [ name ] ->
    let* name = str name in
    let* i = index_of env.schedule_names "schedule" name in
    Ok (Script.Request_schedule i)
  | "log-schedule-status", [] -> Ok Script.Log_schedule_status
  | "suspend-self", [ tmo ] ->
    let* tmo = timeout tmo in
    Ok (Script.Suspend_self tmo)
  | "resume", [ name ] ->
    let* name = str name in
    Ok (Script.Resume_process name)
  | "start", [ name ] ->
    let* name = str name in
    Ok (Script.Start_other name)
  | "stop", [ name ] ->
    let* name = str name in
    Ok (Script.Stop_other name)
  | "stop-self", [] -> Ok Script.Stop_self
  | "disable-interrupts", [] -> Ok Script.Disable_interrupts
  | "lock-preemption", [] -> Ok Script.Lock_preemption
  | "unlock-preemption", [] -> Ok Script.Unlock_preemption
  | tag, _ -> error "unknown or malformed action (%s …)" tag

(* --- Processes ---------------------------------------------------------- *)

type process_decl = {
  spec : Process.spec;
  script : Script.t;
  autostart : bool;
}

let decode_periodicity args =
  match args with
  | [ Sexp.Atom "aperiodic" ] -> Ok Process.Aperiodic
  | [ Sexp.List [ Sexp.Atom "sporadic"; bound ] ] ->
    let* bound = time bound in
    Ok (Process.Sporadic bound)
  | [ n ] ->
    let* n = time n in
    Ok (Process.Periodic n)
  | _ -> error "expected a period, aperiodic, or (sporadic n)"

let decode_process env s =
  let* body = tagged "process" s in
  let* f = fields_of ~context:"process" body in
  let* name = required f "name" (one atom) in
  let* periodicity =
    with_default f "period" decode_periodicity Process.Aperiodic
  in
  let* time_capacity = with_default f "capacity" (one time) Time.infinity in
  let* wcet = with_default f "wcet" (one time) 0 in
  let* base_priority = with_default f "priority" (one int) 10 in
  let* autostart =
    with_default f "autostart" (one (keyword Keywords.booleans)) true
  in
  let* actions = map_all (decode_action env) (rest_of f "script") in
  let* on_end =
    with_default f "on-end" (one (keyword Keywords.on_end)) Script.Repeat
  in
  let* () =
    assert_no_extra f
      ~known:
        [ "name"; "period"; "capacity"; "wcet"; "priority"; "autostart";
          "script"; "on-end" ]
  in
  Ok
    { spec =
        { Process.name; periodicity; time_capacity; wcet; base_priority };
      script = Script.make ~on_end actions;
      autostart }

(* --- Intrapartition objects ---------------------------------------------- *)

(* The optional trailing queuing discipline of a semaphore or buffer. *)
let decode_discipline tag = function
  | [] -> Ok Air_pos.Intra.Fifo
  | [ d ] -> keyword Keywords.discipline d
  | _ -> error "too many arguments to %s" tag

let decode_intra_object s =
  let* tag, args = tag_of s in
  match (tag, args) with
  | "semaphore", name :: initial :: maximum :: rest ->
    let* name = atom name in
    let* initial = int initial in
    let* maximum = int maximum in
    let* discipline = decode_discipline tag rest in
    Ok (Air.System.Semaphore_object { name; initial; maximum; discipline })
  | "event", [ name ] ->
    let* name = atom name in
    Ok (Air.System.Event_object { name })
  | "blackboard", [ name; size ] ->
    let* name = atom name in
    let* max_message_size = int size in
    Ok (Air.System.Blackboard_object { name; max_message_size })
  | "buffer", name :: depth :: size :: rest ->
    let* name = atom name in
    let* depth = int depth in
    let* max_message_size = int size in
    let* discipline = decode_discipline tag rest in
    Ok (Air.System.Buffer_object { name; depth; max_message_size; discipline })
  | tag, _ -> error "unknown or malformed object (%s …)" tag

(* --- Partitions --------------------------------------------------------- *)

let decode_partition env index s =
  let* body = tagged "partition" s in
  let* f = fields_of ~context:"partition" body in
  let* name = required f "name" (one atom) in
  let* kind =
    with_default f "kind"
      (one (keyword Keywords.partition_kind))
      Partition.Application
  in
  let* policy =
    with_default f "policy"
      (fun args ->
        match args with
        | [ Sexp.Atom "priority" ] -> Ok Kernel.Priority_preemptive
        | [ Sexp.List [ Sexp.Atom "round-robin"; q ] ] ->
          let* quantum = int q in
          Ok (Kernel.Round_robin { quantum })
        | _ -> error "expected priority or (round-robin quantum)")
      Kernel.Priority_preemptive
  in
  let* store =
    with_default f "deadline-store"
      (one (keyword Keywords.deadline_store))
      Air.Deadline_store.Linked_list_impl
  in
  let* processes =
    map_all (decode_process env) (rest_of f "processes")
  in
  let* intra_objects = map_all decode_intra_object (rest_of f "objects") in
  let* error_handler = optional f "error-handler" (one atom) in
  let* () =
    assert_no_extra f
      ~known:
        [ "name"; "kind"; "policy"; "deadline-store"; "processes"; "objects";
          "error-handler" ]
  in
  let partition =
    Partition.make ~kind
      ~id:(Ident.Partition_id.make index)
      ~name
      (List.map (fun p -> p.spec) processes)
  in
  let setup =
    Air.System.partition_setup ~policy ~store ~intra_objects ?error_handler
      ~autostart:
        (List.map
           (fun p -> (p.spec.Process.name, p.autostart))
           processes)
      partition
      (List.map (fun p -> p.script) processes)
  in
  Ok setup

(* --- Schedules ---------------------------------------------------------- *)

let decode_requirement env s =
  let* body = tagged "req" s in
  let* f = fields_of ~context:"req" body in
  let* pname = required f "partition" (one atom) in
  let* partition = partition_id env pname in
  let* cycle = required f "cycle" (one time) in
  let* duration = required f "duration" (one time) in
  Ok { Schedule.partition; cycle; duration }

let decode_window env s =
  let* body = tagged "window" s in
  let* f = fields_of ~context:"window" body in
  let* pname = required f "partition" (one atom) in
  let* partition = partition_id env pname in
  let* offset = required f "offset" (one time) in
  let* duration = required f "duration" (one time) in
  Ok { Schedule.partition; offset; duration }

let decode_change_action env s =
  match s with
  | Sexp.List [ Sexp.Atom pname; action ] ->
    let* partition = partition_id env pname in
    let* action = keyword Keywords.change_action action in
    Ok (partition, action)
  | _ -> error "expected (PARTITION ACTION)"

let decode_schedule env index s =
  let* body = tagged "schedule" s in
  let* f = fields_of ~context:"schedule" body in
  let* name = required f "name" (one atom) in
  let* mtf = required f "mtf" (one time) in
  let* requirements =
    map_all (decode_requirement env) (rest_of f "requirements")
  in
  let* windows = map_all (decode_window env) (rest_of f "windows") in
  let* change_actions =
    map_all (decode_change_action env) (rest_of f "change-actions")
  in
  let* () =
    assert_no_extra f
      ~known:[ "name"; "mtf"; "requirements"; "windows"; "change-actions" ]
  in
  checked ("schedule " ^ name) (fun () ->
      Schedule.make ~change_actions
        ~id:(Ident.Schedule_id.make index)
        ~name ~mtf ~requirements windows)

(* --- Ports and channels ------------------------------------------------- *)

let decode_port env s =
  let* tag, body = tag_of s in
  let* f = fields_of ~context:tag body in
  let* name = required f "name" (one atom) in
  let* pname = required f "partition" (one atom) in
  let* partition = partition_id env pname in
  let* direction =
    required f "direction" (one (keyword Keywords.direction))
  in
  let* max_message_size = with_default f "max-size" (one int) 64 in
  let form = tag ^ " " ^ name in
  let known kind_field =
    assert_no_extra f
      ~known:[ "name"; "partition"; "direction"; "max-size"; kind_field ]
  in
  match tag with
  | "sampling-port" ->
    let* refresh = required f "refresh" (one time) in
    let* () = known "refresh" in
    checked form (fun () ->
        Port.sampling_port ~name ~partition ~direction ~refresh
          ~max_message_size)
  | "queuing-port" ->
    let* depth = with_default f "depth" (one int) 8 in
    let* () = known "depth" in
    checked form (fun () ->
        Port.queuing_port ~name ~partition ~direction ~depth ~max_message_size)
  | _ -> error "expected sampling-port or queuing-port, got %s" tag

let decode_channel s =
  let* body = tagged "channel" s in
  let* f = fields_of ~context:"channel" body in
  let* source = required f "source" (one atom) in
  let* destinations = required f "destinations" (many atom) in
  Ok { Port.source; destinations }

(* --- Health monitoring tables ------------------------------------------- *)

let rec decode_process_action = function
  | Sexp.Atom _ as s -> keyword Keywords.process_action s
  | Sexp.List [ Sexp.Atom "restart-partition"; mode ] ->
    let* mode = keyword Keywords.restart_mode mode in
    Ok (Error.Restart_partition_of_process mode)
  | Sexp.List [ Sexp.Atom "log-then"; n; inner ] ->
    let* n = int n in
    let* inner = decode_process_action inner in
    Ok (Error.Log_then (n, inner))
  | s -> error "unknown process recovery action %s" (Sexp.to_string s)

(* The (PARTITION CODE ACTION) entries of process-errors or
   partition-errors, split into specific entries and the wildcard defaults
   a "*" partition makes: a default applies to any partition without a
   specific entry for the code. *)
let decode_hm_entries env action forms =
  let* entries =
    map_all
      (function
        | Sexp.List [ p; code; act ] ->
          let* p =
            default_or_index ~default:"*" env.partition_names "partition" p
          in
          let* code = keyword Keywords.error_code code in
          let* act = action act in
          Ok (p, (code, act))
        | _ -> error "expected (PARTITION CODE ACTION)")
      forms
  in
  Ok
    ( List.filter_map
        (function
          | Some i, (code, act) -> Some (Ident.Partition_id.make i, code, act)
          | None, _ -> None)
        entries,
      List.filter_map
        (function None, e -> Some e | Some _, _ -> None)
        entries )

let decode_hm env args =
  let* f = fields_of ~context:"hm" args in
  let* process_actions, process_defaults =
    with_default f "process-errors"
      (decode_hm_entries env decode_process_action)
      ([], [])
  in
  let* partition_actions, partition_defaults =
    with_default f "partition-errors"
      (decode_hm_entries env (keyword Keywords.partition_action))
      ([], [])
  in
  let* module_actions =
    with_default f "module-errors"
      (many (function
        | Sexp.List [ code; action ] ->
          let* code = keyword Keywords.error_code code in
          let* action = keyword Keywords.module_action action in
          Ok (code, action)
        | _ -> error "expected (CODE ACTION)"))
      []
  in
  let* () =
    assert_no_extra f
      ~known:[ "process-errors"; "partition-errors"; "module-errors" ]
  in
  Ok
    { Air.Hm.process_actions; partition_actions; module_actions;
      process_defaults; partition_defaults }

(* --- Telemetry ----------------------------------------------------------- *)

(* (watchdog (schedule *|NAME) (min-slack N) (max-jitter-p99 N)
             (max-catch-up N) (max-deadline-misses N))
   A "*" (or omitted) schedule makes the entry the default watchdog;
   named entries override it for frames run under that schedule. *)
let decode_watchdog env s =
  let* body = tagged "watchdog" s in
  let* f = fields_of ~context:"watchdog" body in
  let* schedule =
    with_default f "schedule"
      (one (default_or_index ~default:"*" env.schedule_names "schedule"))
      None
  in
  let* min_slack = optional f "min-slack" (one int) in
  let* max_jitter_p99 = optional f "max-jitter-p99" (one int) in
  let* max_catch_up = optional f "max-catch-up" (one int) in
  let* max_deadline_misses = optional f "max-deadline-misses" (one int) in
  let* () =
    assert_no_extra f
      ~known:
        [ "schedule"; "min-slack"; "max-jitter-p99"; "max-catch-up";
          "max-deadline-misses" ]
  in
  Ok
    ( schedule,
      Air_obs.Telemetry.watchdog ?min_slack ?max_jitter_p99 ?max_catch_up
        ?max_deadline_misses () )

let decode_telemetry env args =
  let* f = fields_of ~context:"telemetry" args in
  let* retention = optional f "retention" (one int) in
  let* entries =
    with_default f "watchdogs" (many (decode_watchdog env)) []
  in
  let* () = assert_no_extra f ~known:[ "retention"; "watchdogs" ] in
  let* default_watchdog, schedule_watchdogs =
    default_and_named ~context:"telemetry.watchdogs" env.schedule_names
      entries
  in
  checked "telemetry" (fun () ->
      Air_obs.Telemetry.config ?retention ?default_watchdog
        ~schedule_watchdogs ())

(* (causal (retention 16384)) — attach a causal flow tracker stamping
   every IPC message with a correlation id; retention bounds the hop-record
   ring. *)
let decode_causal args =
  let* f = fields_of ~context:"causal" args in
  let* retention = optional f "retention" (one int) in
  let* () = assert_no_extra f ~known:[ "retention" ] in
  checked "causal" (fun () -> Air_obs.Causal.create ?capacity:retention ())

(* --- Contention ----------------------------------------------------------- *)

(* (contention
     (budget (default N) (NAME N) …)
     (curve (THRESHOLD STALL) …)
     (compute-cost N)
     (pressure-decay N))
   Shared-resource contention model: per-partition memory-bandwidth
   budgets per MTF window, a slowdown curve in (overage permille,
   stall ticks per access) steps, an optional per-compute-tick cost and
   the window-to-window cache-pressure decay (permille). *)
let decode_contention env args =
  let* f = fields_of ~context:"contention" args in
  let* entries =
    with_default f "budget"
      (many (function
        | Sexp.List [ key; n ] ->
          let* key =
            default_or_index ~default:"default" env.partition_names
              "partition" key
          in
          let* n = int n in
          Ok (key, n)
        | _ -> error "expected (default N) or (PARTITION N)"))
      []
  in
  let* default_budget, budgets =
    default_and_named ~context:"contention.budget" env.partition_names
      entries
  in
  let* default_budget =
    match default_budget with
    | Some n -> Ok n
    | None -> error "contention.budget: missing (default N)"
  in
  (* A present-but-empty (curve) is meaningful — contention accounting
     without slowdown — and distinct from an absent field (the default
     one-step curve), so the lookup goes through [optional]. *)
  let* curve =
    optional f "curve"
      (many (fun s ->
           match s with
           | Sexp.List [ t; step ] ->
             let* t = int t in
             let* step = int step in
             Ok (t, step)
           | _ -> error "expected (THRESHOLD STALL)"))
  in
  let* compute_cost = optional f "compute-cost" (one int) in
  let* pressure_decay = optional f "pressure-decay" (one int) in
  let* () =
    assert_no_extra f
      ~known:[ "budget"; "curve"; "compute-cost"; "pressure-decay" ]
  in
  checked "contention" (fun () ->
      Air_spatial.Contention.config ~budgets ?curve ?compute_cost
        ?pressure_decay_permille:pressure_decay ~default_budget ())

(* --- Fault campaigns ------------------------------------------------------ *)

(* (faults
     (campaign
       (name nominal-storm)
       (seed 7)
       (horizon 20000)
       (injections
         (inject (at 1500) (fault (wild-access GNC data write 64)))
         (inject (at 3000) (fault (clock-jitter CAMERA 40))))
       (rates
         (rate (per-mtf-permille 250) (fault (message-loss ATT_OUT)))))
     (campaign …))

   Fault forms:
     (runaway-start PARTITION PROCESS)     (process-stop PARTITION PROCESS)
     (restart-partition PARTITION warm|cold|idle)
     (request-schedule SCHEDULE)           (clock-jitter PARTITION TICKS)
     (wild-access PARTITION SECTION read|write [OFFSET])
     (bit-flip PARTITION SECTION BIT read|write)
     (bandwidth-hog PARTITION PERMILLE)
     (message-loss PORT)                   (message-duplicate PORT)
     (message-corrupt PORT BYTE)           (message-delay PORT TICKS)
     (message-reorder PORT)
     (link-loss) (link-duplicate) (link-corrupt BYTE) (link-delay TICKS)
     (link-reorder)
     (module-error CODE)
   with SECTION one of code|data|stack|io. *)

let decode_fault env s =
  let open Air_faults.Fault in
  let* tag, args = tag_of s in
  let partition_index p =
    let* p = atom p in
    index_of env.partition_names "partition" p
  in
  let port_fault port fault =
    let* port = atom port in
    Ok (Port_fault { port; fault })
  in
  match (tag, args) with
  | "runaway-start", [ p; pr ] ->
    let* partition = partition_index p in
    let* process = atom pr in
    Ok (Runaway_start { partition; process })
  | "process-stop", [ p; pr ] ->
    let* partition = partition_index p in
    let* process = atom pr in
    Ok (Process_stop { partition; process })
  | "restart-partition", [ p; m ] ->
    let* partition = partition_index p in
    let* mode = keyword Keywords.fault_restart_mode m in
    Ok (Partition_restart { partition; mode })
  | "request-schedule", [ s ] ->
    let* name = atom s in
    let* schedule = index_of env.schedule_names "schedule" name in
    Ok (Schedule_request { schedule })
  | "clock-jitter", [ p; t ] ->
    let* partition = partition_index p in
    let* ticks = int t in
    Ok (Clock_jitter { partition; ticks })
  | "wild-access", p :: sec :: rw :: rest ->
    let* partition = partition_index p in
    let* section = keyword Keywords.section sec in
    let* write = keyword Keywords.read_write rw in
    let* offset =
      match rest with
      | [] -> Ok 64
      | [ o ] -> int o
      | _ -> error "wild-access: expected PARTITION SECTION read|write [OFFSET]"
    in
    Ok (Wild_access { partition; section; offset; write })
  | "bit-flip", [ p; sec; bit; rw ] ->
    let* partition = partition_index p in
    let* section = keyword Keywords.section sec in
    let* bit = int bit in
    let* write = keyword Keywords.read_write rw in
    Ok (Bit_flip { partition; section; bit; write })
  | "bandwidth-hog", [ p; permille ] ->
    let* partition = partition_index p in
    let* permille = int permille in
    Ok (Bandwidth_hog { partition; permille })
  | "message-loss", [ port ] -> port_fault port Msg_loss
  | "message-duplicate", [ port ] -> port_fault port Msg_duplicate
  | "message-corrupt", [ port; byte ] ->
    let* byte = int byte in
    port_fault port (Msg_corrupt { byte })
  | "message-delay", [ port; ticks ] ->
    let* ticks = int ticks in
    port_fault port (Msg_delay { ticks })
  | "message-reorder", [ port ] -> port_fault port Msg_reorder
  | "link-loss", [] -> Ok (Link_fault { fault = Msg_loss })
  | "link-duplicate", [] -> Ok (Link_fault { fault = Msg_duplicate })
  | "link-corrupt", [ byte ] ->
    let* byte = int byte in
    Ok (Link_fault { fault = Msg_corrupt { byte } })
  | "link-delay", [ ticks ] ->
    let* ticks = int ticks in
    Ok (Link_fault { fault = Msg_delay { ticks } })
  | "link-reorder", [] -> Ok (Link_fault { fault = Msg_reorder })
  | "module-error", [ code ] ->
    let* code = keyword Keywords.error_code code in
    Ok (Module_error { code })
  | _, _ -> error "unknown fault form (%s …)" tag

let decode_injection env s =
  let* body = tagged "inject" s in
  let* f = fields_of ~context:"inject" body in
  let* at = required f "at" (one time) in
  let* fault = required f "fault" (one (decode_fault env)) in
  let* () = assert_no_extra f ~known:[ "at"; "fault" ] in
  Ok { Air_faults.Campaign.at; fault }

let decode_rate env s =
  let* body = tagged "rate" s in
  let* f = fields_of ~context:"rate" body in
  let* per_mtf_permille = required f "per-mtf-permille" (one int) in
  let* template = required f "fault" (one (decode_fault env)) in
  let* () = assert_no_extra f ~known:[ "per-mtf-permille"; "fault" ] in
  Ok { Air_faults.Campaign.per_mtf_permille; template }

let decode_campaign env s =
  let* body = tagged "campaign" s in
  let* f = fields_of ~context:"campaign" body in
  let* name = with_default f "name" (one atom) "campaign" in
  let* seed = required f "seed" (one int) in
  let* horizon = required f "horizon" (one int) in
  let* injections = map_all (decode_injection env) (rest_of f "injections") in
  let* rates = map_all (decode_rate env) (rest_of f "rates") in
  let* () =
    assert_no_extra f
      ~known:[ "name"; "seed"; "horizon"; "injections"; "rates" ]
  in
  checked ("campaign " ^ name) (fun () ->
      Air_faults.Campaign.spec ~name ~injections ~rates ~seed ~horizon ())

let decode_faults env f = map_all (decode_campaign env) (rest_of f "faults")

(* --- Documents ------------------------------------------------------------ *)

(* A document is exactly one [(tag field…)] form. *)
let document tag parsed =
  match parsed with
  | Error e -> Error (Format.asprintf "%a" Sexp.pp_error e)
  | Ok [ s ] ->
    let* body = tagged tag s in
    fields_of ~context:tag body
  | Ok _ -> error "expected exactly one (%s …) form" tag

(* The names an (air-system …) document declares, in declaration order. *)
let env_of f =
  let names kind field =
    map_all
      (fun s ->
        let* _, args = tag_of s in
        let* g = fields_of ~context:kind args in
        required g "name" (one atom))
      (rest_of f field)
  in
  let* partition_names = names "partition" "partitions" in
  let* schedule_names = names "schedule" "schedules" in
  Ok { partition_names; schedule_names }

(* An optional section: absent or empty is [None]. *)
let section f name decode =
  match rest_of f name with
  | [] -> Ok None
  | args ->
    let* v = decode args in
    Ok (Some v)

let decode_system f =
  let* env = env_of f in
  let indexed field = List.mapi (fun i s -> (i, s)) (rest_of f field) in
  let* partitions =
    map_all (fun (i, s) -> decode_partition env i s) (indexed "partitions")
  in
  let* schedules =
    map_all (fun (i, s) -> decode_schedule env i s) (indexed "schedules")
  in
  let* ports = map_all (decode_port env) (rest_of f "ports") in
  let* channels = map_all decode_channel (rest_of f "channels") in
  let* initial_schedule =
    optional f "initial-schedule"
      (one (fun s ->
           let* name = atom s in
           let* i = index_of env.schedule_names "schedule" name in
           Ok (Ident.Schedule_id.make i)))
  in
  let* hm_tables = section f "hm" (decode_hm env) in
  let* telemetry = section f "telemetry" (decode_telemetry env) in
  let* causal = section f "causal" decode_causal in
  let* contention = section f "contention" (decode_contention env) in
  (* Multicore executive: (cores N) shards every schedule over N PMK
     lanes (Air.System sharding; window offsets preserved). *)
  let* cores = optional f "cores" (one int) in
  (* Campaigns live in the same document but are not part of the module
     configuration; validate the grammar here so a typo fails the load. *)
  let* _campaigns = decode_faults env f in
  let* () =
    assert_no_extra f
      ~known:
        [ "partitions"; "schedules"; "ports"; "channels"; "initial-schedule";
          "hm"; "telemetry"; "causal"; "contention"; "faults"; "cores" ]
  in
  checked "air-system" (fun () ->
      Air.System.config ?initial_schedule
        ~network:{ Port.ports; channels }
        ?hm_tables ?telemetry ?causal ?contention ?cores ~partitions
        ~schedules ())

let load input =
  let* f = document "air-system" (Sexp.parse input) in
  decode_system f

let load_file path =
  let* f = document "air-system" (Sexp.parse_file path) in
  decode_system f

let load_campaigns_file path =
  let* f = document "air-system" (Sexp.parse_file path) in
  let* env = env_of f in
  decode_faults env f

(* Loads and builds the modules of a cluster or fleet document: one
   (label, config path) per module, the path relative to the document's
   directory. [instrument] is the caller's hook: e.g. air_run attaches a
   flight recorder and causal tracker to every module when an
   observability export was requested. *)
let build_modules ?instrument ~dir modules =
  map_all
    (fun (i, (label, config)) ->
      let path =
        if Filename.is_relative config then Filename.concat dir config
        else config
      in
      let form = Printf.sprintf "%s (%s)" label path in
      let* cfg =
        match load_file path with
        | Ok cfg -> Ok cfg
        | Error e -> error "%s: %s" form e
      in
      let cfg = match instrument with None -> cfg | Some f -> f i cfg in
      checked form (fun () -> Air.System.create cfg))
    (List.mapi (fun i m -> (i, m)) modules)

(* --- Clusters ------------------------------------------------------------ *)

let decode_bus args =
  let* f = fields_of ~context:"bus" args in
  let* latency =
    with_default f "latency" (one time)
      Air.Cluster.default_bus.Air.Cluster.latency
  in
  let* bytes_per_tick =
    with_default f "bytes-per-tick" (one int)
      Air.Cluster.default_bus.Air.Cluster.bytes_per_tick
  in
  let* () = assert_no_extra f ~known:[ "latency"; "bytes-per-tick" ] in
  Ok { Air.Cluster.latency; bytes_per_tick }

let decode_module_decl s =
  let* body = tagged "module" s in
  let* f = fields_of ~context:"module" body in
  let* name = required f "name" (one atom) in
  let* config = required f "config" (one atom) in
  let* () = assert_no_extra f ~known:[ "name"; "config" ] in
  Ok (name, config)

let decode_link module_names s =
  let* body = tagged "link" s in
  let* f = fields_of ~context:"link" body in
  let endpoint field_name =
    match rest_of f field_name with
    | [ Sexp.Atom m; Sexp.Atom port ] ->
      let* i = index_of module_names "module" m in
      Ok (i, port)
    | _ -> error "link.%s: expected MODULE PORT" field_name
  in
  let* from_module, from_port = endpoint "from" in
  let* to_module, to_port = endpoint "to" in
  let* latency = optional f "latency" (one int) in
  let* () = assert_no_extra f ~known:[ "from"; "to"; "latency" ] in
  Ok
    (Air.Cluster.link ?latency ~from_module ~from_port ~to_module ~to_port ())

let load_cluster_file ?instrument path =
  let* f = document "air-cluster" (Sexp.parse_file path) in
  let* bus = with_default f "bus" decode_bus Air.Cluster.default_bus in
  let* modules = map_all decode_module_decl (rest_of f "modules") in
  let* () = if modules = [] then error "air-cluster: no modules" else Ok () in
  let* links =
    map_all (decode_link (List.map fst modules)) (rest_of f "links")
  in
  let* () = assert_no_extra f ~known:[ "bus"; "modules"; "links" ] in
  let* systems =
    build_modules ?instrument ~dir:(Filename.dirname path)
      (List.map (fun (name, config) -> ("module " ^ name, config)) modules)
  in
  checked "air-cluster" (fun () -> Air.Cluster.create ~bus ~links systems)

(* --- Fleets -------------------------------------------------------------- *)

let decode_topology = function
  | [] | [ Sexp.Atom "ring" ] -> Ok Air_fleet.Topology.Ring
  | [ Sexp.Atom "mesh" ] -> Ok Air_fleet.Topology.Mesh
  | [ Sexp.Atom "grid"; rows; cols ] ->
    let* rows = int rows in
    let* cols = int cols in
    Ok (Air_fleet.Topology.Grid { rows; cols })
  | _ -> error "topology: expected ring, mesh or grid ROWS COLS"

type fleet = { fleet_cluster : Air.Cluster.t; fleet_domains : int }

let load_fleet_file ?instrument path =
  let* f = document "air-fleet" (Sexp.parse_file path) in
  let* template = required f "template" (one atom) in
  let* n = required f "modules" (one int) in
  let* () =
    if n < 2 then error "air-fleet: needs at least 2 modules" else Ok ()
  in
  let* shape = decode_topology (rest_of f "topology") in
  let* gateway = with_default f "gateway" (one atom) "TX" in
  let* ingress = with_default f "ingress" (one atom) "RX" in
  let* bus = with_default f "bus" decode_bus Air.Cluster.default_bus in
  let* isl_latency = optional f "isl-latency" (one time) in
  let* domains = with_default f "domains" (one int) 1 in
  let* () =
    if domains < 1 then error "air-fleet: domains must be >= 1" else Ok ()
  in
  let* () =
    assert_no_extra f
      ~known:
        [ "template"; "modules"; "topology"; "gateway"; "ingress"; "bus";
          "isl-latency"; "domains" ]
  in
  let* links =
    checked "air-fleet" (fun () ->
        Air_fleet.Topology.links ?latency:isl_latency ~gateway ~ingress shape
          ~n)
  in
  (* The template is reloaded per module so clones never share mutable
     observability state (trackers, recorders). *)
  let* systems =
    build_modules ?instrument ~dir:(Filename.dirname path)
      (List.init n (fun _ -> ("air-fleet template", template)))
  in
  let* cluster =
    checked "air-fleet" (fun () -> Air.Cluster.create ~bus ~links systems)
  in
  Ok { fleet_cluster = cluster; fleet_domains = domains }
