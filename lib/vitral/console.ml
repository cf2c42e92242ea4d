open Air_model
open Ident

type t = {
  partition_windows : (Partition_id.t * Window.t) list;
  pmk : Window.t;
  hm : Window.t;
}

let create ?(window_width = 34) ~partitions () =
  let mk title = Window.create ~height:6 ~title ~width:window_width () in
  { partition_windows =
      List.map (fun (pid, label) -> (pid, mk label)) partitions;
    pmk = mk "AIR PMK";
    hm = mk "AIR Health Monitor" }

let partition_window t pid =
  Option.map snd
    (List.find_opt
       (fun (p, _) -> Partition_id.equal p pid)
       t.partition_windows)

let feed t time ev =
  let stamp w = Window.push_fmt w "[%a] %a" Air_sim.Time.pp time Event.pp ev in
  match ev with
  | Event.Application_output { partition; line } -> (
    match partition_window t partition with
    | Some w -> Window.push_fmt w "[%a] %s" Air_sim.Time.pp time line
    | None -> ())
  | Event.Schedule_switch_request _ | Event.Schedule_switch _
  | Event.Change_action _ | Event.Partition_mode_change _ ->
    stamp t.pmk
  | Event.Deadline_violation _ | Event.Hm_error _ | Event.Hm_process_action _
  | Event.Hm_partition_action _ | Event.Hm_module_action _
  | Event.Module_halt _ | Event.Fault_injected _ ->
    stamp t.hm
  | Event.Context_switch _ | Event.Process_state_change _
  | Event.Process_dispatched _ | Event.Deadline_registered _
  | Event.Deadline_unregistered _ | Event.Port_send _ | Event.Port_receive _
  | Event.Port_overflow _ | Event.Memory_access _ ->
    ()

let feed_trace t trace = Air_sim.Trace.iter (feed t) trace

let render t =
  Window.render_grid ~columns:2
    (List.map snd t.partition_windows @ [ t.pmk; t.hm ])
