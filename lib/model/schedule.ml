open Air_sim
open Ident

type requirement = {
  partition : Partition_id.t;
  cycle : Time.t;
  duration : Time.t;
}

type window = {
  partition : Partition_id.t;
  offset : Time.t;
  duration : Time.t;
}

type change_action = No_action | Warm_restart_partition | Cold_restart_partition

let change_action_label = function
  | No_action -> "no-action"
  | Warm_restart_partition -> "warm-restart"
  | Cold_restart_partition -> "cold-restart"

let pp_change_action ppf a =
  Format.pp_print_string ppf (change_action_label a)

type t = {
  id : Schedule_id.t;
  name : string;
  mtf : Time.t;
  requirements : requirement list;
  windows : window list;
  change_actions : (Partition_id.t * change_action) list;
}

let make ?(change_actions = []) ~id ~name ~mtf ~requirements windows =
  if mtf <= 0 then invalid_arg "Schedule.make: non-positive MTF";
  List.iter
    (fun w ->
      if w.duration <= 0 then
        invalid_arg "Schedule.make: non-positive window duration")
    windows;
  let windows =
    List.stable_sort (fun a b -> Time.compare a.offset b.offset) windows
  in
  { id; name; mtf; requirements; windows; change_actions }

let change_action_for t pid =
  match
    List.find_opt (fun (p, _) -> Partition_id.equal p pid) t.change_actions
  with
  | Some (_, a) -> a
  | None -> No_action

let requirement_for t pid =
  List.find_opt
    (fun (r : requirement) -> Partition_id.equal r.partition pid)
    t.requirements

let partitions t =
  List.fold_left
    (fun acc (r : requirement) ->
      if List.exists (Partition_id.equal r.partition) acc then acc
      else r.partition :: acc)
    [] t.requirements
  |> List.rev

let windows_of t pid =
  List.filter (fun (w : window) -> Partition_id.equal w.partition pid) t.windows

let total_window_time t pid =
  List.fold_left (fun acc w -> Time.add acc w.duration) Time.zero
    (windows_of t pid)

let utilization t =
  let busy =
    List.fold_left (fun acc w -> Time.add acc w.duration) Time.zero t.windows
  in
  float_of_int busy /. float_of_int t.mtf

let window_at t off =
  let off = off mod t.mtf in
  List.find_opt
    (fun w -> Time.(w.offset <= off) && off < w.offset + w.duration)
    t.windows

type preemption_point = { tick : Time.t; heir : Partition_id.t option }

let preemption_table t =
  (* Walk the sorted windows, emitting a point at each window start and an
     idle point after each window that is not immediately followed by the
     next one. A leading gap yields an idle point at tick 0 so that the
     table always starts there (Algorithm 1 indexes it cyclically). *)
  let points = ref [] in
  let emit tick heir = points := { tick; heir } :: !points in
  let cursor = ref Time.zero in
  List.iter
    (fun w ->
      if Time.(!cursor < w.offset) then emit !cursor None;
      emit w.offset (Some w.partition);
      cursor := Time.add w.offset w.duration)
    t.windows;
  if Time.(!cursor < t.mtf) then emit !cursor None;
  let table = Array.of_list (List.rev !points) in
  if Array.length table = 0 then [| { tick = Time.zero; heir = None } |]
  else table

let pp_window ppf (w : window) =
  Format.fprintf ppf "⟨%a, O=%a, c=%a⟩" Partition_id.pp w.partition Time.pp
    w.offset Time.pp w.duration

let pp_requirement ppf (r : requirement) =
  Format.fprintf ppf "⟨%a, η=%a, d=%a⟩" Partition_id.pp r.partition Time.pp
    r.cycle Time.pp r.duration

let pp ppf t =
  Format.fprintf ppf "@[<v2>%a %s: MTF=%a@,Q = {%a}@,ω = {%a}@]"
    Schedule_id.pp t.id t.name Time.pp t.mtf
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_requirement)
    t.requirements
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_window)
    t.windows
