open Air_sim
open Air_model
open Air_pos
open Air_ipc

type return_code =
  | No_error
  | No_action
  | Not_available
  | Invalid_param
  | Invalid_config
  | Invalid_mode
  | Timed_out

let pp_return_code ppf c =
  Format.pp_print_string ppf
    (match c with
    | No_error -> "NO_ERROR"
    | No_action -> "NO_ACTION"
    | Not_available -> "NOT_AVAILABLE"
    | Invalid_param -> "INVALID_PARAM"
    | Invalid_config -> "INVALID_CONFIG"
    | Invalid_mode -> "INVALID_MODE"
    | Timed_out -> "TIMED_OUT")

let return_code_equal a b =
  match (a, b) with
  | No_error, No_error
  | No_action, No_action
  | Not_available, Not_available
  | Invalid_param, Invalid_param
  | Invalid_config, Invalid_config
  | Invalid_mode, Invalid_mode
  | Timed_out, Timed_out ->
    true
  | ( ( No_error | No_action | Not_available | Invalid_param | Invalid_config
      | Invalid_mode | Timed_out ),
      _ ) ->
    false

type outcome = Done of return_code | Msg of bytes * return_code | Blocked

let pp_outcome ppf = function
  | Done c -> Format.fprintf ppf "done(%a)" pp_return_code c
  | Msg (m, c) ->
    Format.fprintf ppf "msg(%d bytes, %a)" (Bytes.length m) pp_return_code c
  | Blocked -> Format.pp_print_string ppf "blocked"

type env = {
  partition : Partition.t;
  kernel : Kernel.t;
  intra : Intra.t;
  router : Router.t;
  lane : Pmk_mc.t;
  now : unit -> Time.t;
  emit : Event.t -> unit;
  report_process_error : process:int -> Error.code -> detail:string -> unit;
  report_partition_error : Error.code -> detail:string -> unit;
  notify_port_delivery : Ident.Port_name.t list -> unit;
  mode : unit -> Partition.mode;
  set_mode : Partition.mode -> unit;
}

let op_result = function
  | Ok () -> Done No_error
  | Error Kernel.Not_dormant -> Done No_action
  | Error Kernel.Already_dormant -> Done No_action
  | Error Kernel.Not_waiting -> Done Invalid_mode
  | Error Kernel.Invalid_for_periodic -> Done Invalid_mode
  | Error Kernel.Not_periodic -> Done Invalid_mode
  | Error Kernel.No_such_process -> Done Invalid_param

(* Time management *)

let get_time env = env.now ()

let timed_wait env ~process delay =
  match Kernel.timed_wait env.kernel ~now:(env.now ()) process delay with
  | Ok () -> Blocked
  | Error _ -> Done Invalid_param

let periodic_wait env ~process =
  match Kernel.periodic_wait env.kernel ~now:(env.now ()) process with
  | Ok () -> Blocked
  | Error Kernel.Not_periodic -> Done Invalid_mode
  | Error _ -> Done Invalid_param

let replenish env ~process budget =
  match Kernel.replenish env.kernel ~now:(env.now ()) process budget with
  | Ok () ->
    env.emit
      (Event.Deadline_registered
         { process = Partition.process_id env.partition process;
           deadline = Kernel.deadline_time env.kernel process });
    Done No_error
  | Error _ -> Done Invalid_param

(* Process management *)

let start env ~process = op_result (Kernel.start env.kernel ~now:(env.now ()) process)

let delayed_start env ~process ~delay =
  op_result (Kernel.start env.kernel ~now:(env.now ()) ~delay process)

let stop env ~process = op_result (Kernel.stop env.kernel process)

let stop_self env ~process = stop env ~process

let suspend_self env ~process ~timeout =
  match Kernel.suspend env.kernel ~now:(env.now ()) ~timeout process with
  | Ok () -> Blocked
  | Error Kernel.Invalid_for_periodic -> Done Invalid_mode
  | Error _ -> Done No_action

let suspend env ~process =
  op_result (Kernel.suspend env.kernel ~now:(env.now ()) process)

let resume env ~process =
  op_result (Kernel.resume env.kernel ~now:(env.now ()) process)

let set_priority env ~process ~priority =
  op_result (Kernel.set_priority env.kernel process priority)

let get_process_status env ~process =
  if process < 0 || process >= Kernel.process_count env.kernel then
    Error Invalid_param
  else Ok (Kernel.status env.kernel process)

(* Partition management *)

type partition_status = {
  operating_mode : Partition.mode;
  partition_kind : Partition.kind;
}

let get_partition_status env =
  { operating_mode = env.mode ();
    partition_kind = env.partition.Partition.kind }

let set_partition_mode env mode =
  env.set_mode mode;
  Done No_error

(* Interpartition communication *)

let caller env = env.partition.Partition.id

let router_error env ~process = function
  | Router.Unknown_port _ -> Done Invalid_config
  | Router.Not_owner _ ->
    env.report_process_error ~process Error.Illegal_request
      ~detail:"port belongs to another partition";
    Done Invalid_config
  | Router.Wrong_direction _ | Router.Wrong_mode _ -> Done Invalid_mode
  | Router.Message_too_large _ | Router.Empty_message -> Done Invalid_param

let write_sampling_message env ~process ~port msg =
  match
    Router.write_sampling env.router ~caller:(caller env) ~port
      ~now:(env.now ()) msg
  with
  | Ok () ->
    env.emit (Event.Port_send { port; bytes = Bytes.length msg });
    Done No_error
  | Error e -> router_error env ~process e

let read_sampling_message env ~process ~port =
  match
    Router.read_sampling env.router ~caller:(caller env) ~port
      ~now:(env.now ())
  with
  | Ok (msg, validity) ->
    if Bytes.length msg = 0 then Done Not_available
    else begin
      env.emit (Event.Port_receive { port; bytes = Bytes.length msg });
      let code =
        match validity with Router.Valid -> No_error | Router.Invalid -> Timed_out
      in
      Msg (msg, code)
    end
  | Error e -> router_error env ~process e

let send_queuing_message env ~process ~port msg =
  match
    Router.send_queuing env.router ~caller:(caller env) ~port
      ~now:(env.now ()) msg
  with
  | Ok { Router.delivered; overflowed } ->
    env.emit (Event.Port_send { port; bytes = Bytes.length msg });
    List.iter
      (fun p -> env.emit (Event.Port_overflow { port = p }))
      overflowed;
    env.notify_port_delivery delivered;
    Done No_error
  | Error e -> router_error env ~process e

let receive_queuing_message env ~process ~port ~timeout =
  match
    Router.receive_queuing ~now:(env.now ()) env.router ~caller:(caller env)
      ~port
  with
  | Ok (Some msg) ->
    env.emit (Event.Port_receive { port; bytes = Bytes.length msg });
    Msg (msg, No_error)
  | Ok None ->
    if timeout = Time.zero then Done Not_available
    else begin
      Kernel.block env.kernel ~now:(env.now ()) process
        (Kernel.On_queuing_port port) ~timeout;
      Blocked
    end
  | Error e -> router_error env ~process e

(* Intrapartition communication *)

let intra_outcome : Intra.outcome -> outcome = function
  | `Done -> Done No_error
  | `Blocked -> Blocked
  | `Unavailable -> Done Not_available
  | `No_such_object -> Done Invalid_config
  | `Message_too_large -> Done Invalid_param

let wait_semaphore env ~process ~name ~timeout =
  intra_outcome
    (Intra.wait_semaphore env.intra ~now:(env.now ()) ~process ~name ~timeout)

let signal_semaphore env ~process:_ ~name =
  intra_outcome (Intra.signal_semaphore env.intra ~now:(env.now ()) ~name)

let wait_event env ~process ~name ~timeout =
  intra_outcome
    (Intra.wait_event env.intra ~now:(env.now ()) ~process ~name ~timeout)

let set_event env ~process:_ ~name =
  intra_outcome (Intra.set_event env.intra ~now:(env.now ()) ~name)

let reset_event env ~process:_ ~name =
  intra_outcome (Intra.reset_event env.intra ~name)

let display_blackboard env ~process:_ ~name msg =
  intra_outcome (Intra.display_blackboard env.intra ~now:(env.now ()) ~name msg)

let clear_blackboard env ~process:_ ~name =
  intra_outcome (Intra.clear_blackboard env.intra ~name)

let read_blackboard env ~process ~name ~timeout =
  match
    Intra.read_blackboard env.intra ~now:(env.now ()) ~process ~name ~timeout
  with
  | `Read msg -> Msg (msg, No_error)
  | #Intra.outcome as o -> intra_outcome o

let send_buffer env ~process ~name msg ~timeout =
  intra_outcome
    (Intra.send_buffer env.intra ~now:(env.now ()) ~process ~name msg ~timeout)

let receive_buffer env ~process ~name ~timeout =
  match
    Intra.receive_buffer env.intra ~now:(env.now ()) ~process ~name ~timeout
  with
  | `Read msg -> Msg (msg, No_error)
  | #Intra.outcome as o -> intra_outcome o

(* Health monitoring *)

let report_application_message env ~process:_ line =
  env.emit
    (Event.Application_output
       { partition = env.partition.Partition.id; line });
  Done No_error

let raise_application_error env ~process detail =
  env.report_process_error ~process Error.Application_error ~detail;
  Done No_error

(* Mode-based schedules *)

let set_module_schedule env ~process target =
  match env.partition.Partition.kind with
  | Partition.Application ->
    (* Only authorized (system) partitions may request schedule switches. *)
    env.report_process_error ~process Error.Illegal_request
      ~detail:"SET_MODULE_SCHEDULE from application partition";
    Done Invalid_mode
  | Partition.System -> (
    match Pmk_mc.request_schedule_switch env.lane target with
    | Ok () ->
      env.emit
        (Event.Schedule_switch_request
           { by = Some env.partition.Partition.id; target });
      Done No_error
    | Error (Pmk.No_such_schedule _) -> Done Invalid_param
    | Error Pmk.Same_schedule -> Done No_action)

type schedule_status = {
  time_of_last_schedule_switch : Time.t;
  current_schedule : Ident.Schedule_id.t;
  next_schedule : Ident.Schedule_id.t;
}

let get_module_schedule_status env =
  { time_of_last_schedule_switch = Pmk_mc.last_schedule_switch env.lane;
    current_schedule = Pmk_mc.current_schedule env.lane;
    next_schedule = Pmk_mc.next_schedule env.lane }

let pp_schedule_status ppf s =
  Format.fprintf ppf "current=%a next=%a lastSwitch=%a" Ident.Schedule_id.pp
    s.current_schedule Ident.Schedule_id.pp s.next_schedule Time.pp
    s.time_of_last_schedule_switch
