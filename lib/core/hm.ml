open Air_model
open Ident

type tables = {
  process_actions :
    (Partition_id.t * Error.code * Error.process_action) list;
  partition_actions :
    (Partition_id.t * Error.code * Error.partition_action) list;
  module_actions : (Error.code * Error.module_action) list;
  process_defaults : (Error.code * Error.process_action) list;
  partition_defaults : (Error.code * Error.partition_action) list;
}

let default_tables =
  { process_actions = [];
    partition_actions = [];
    module_actions = [];
    process_defaults = [];
    partition_defaults = [] }

let strict_tables =
  (* Wildcard entries apply to every partition, whatever the module's
     partition count — no per-partition enumeration. *)
  { default_tables with
    process_defaults = [ (Error.Deadline_missed, Error.Stop_process) ];
    partition_defaults =
      [ (Error.Memory_violation, Error.Partition_warm_restart) ];
    module_actions =
      [ (Error.Hardware_fault, Error.Module_reset);
        (Error.Power_failure, Error.Module_shutdown) ] }

type t = {
  tables : tables;
  occurrence : (int * int option * Error.code, int) Hashtbl.t;
      (* (partition index or -1, process, code) → count. *)
  mutable actions : int;
      (* Resolutions that escalated past the ignore/log-only baseline. *)
}

let create ?(tables = default_tables) () =
  { tables; occurrence = Hashtbl.create 32; actions = 0 }

let bump t key =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.occurrence key) + 1 in
  Hashtbl.replace t.occurrence key n;
  n

let find_process_action tables ~partition ~code =
  match
    List.find_map
      (fun (p, c, a) ->
        if Partition_id.equal p partition && Error.code_equal c code then
          Some a
        else None)
      tables.process_actions
  with
  | Some _ as specific -> specific
  | None ->
    List.find_map
      (fun (c, a) -> if Error.code_equal c code then Some a else None)
      tables.process_defaults

let resolve_process_error t ~partition ~process ~code =
  let occurrences =
    bump t (Partition_id.index partition, Some process, code)
  in
  let action =
    match find_process_action t.tables ~partition ~code with
    | None -> Error.Ignore_error
    | Some (Error.Log_then (threshold, action)) ->
      if occurrences <= threshold then Error.Ignore_error else action
    | Some action -> action
  in
  (match action with
  | Error.Ignore_error -> ()
  | _ -> t.actions <- t.actions + 1);
  action

let find_partition_action tables ~partition ~code =
  match
    List.find_map
      (fun (p, c, a) ->
        if Partition_id.equal p partition && Error.code_equal c code then
          Some a
        else None)
      tables.partition_actions
  with
  | Some _ as specific -> specific
  | None ->
    List.find_map
      (fun (c, a) -> if Error.code_equal c code then Some a else None)
      tables.partition_defaults

let resolve_partition_error t ~partition ~code =
  ignore (bump t (Partition_id.index partition, None, code));
  let action =
    Option.value ~default:Error.Partition_ignore
      (find_partition_action t.tables ~partition ~code)
  in
  (match action with
  | Error.Partition_ignore -> ()
  | _ -> t.actions <- t.actions + 1);
  action

let resolve_module_error t ~code =
  ignore (bump t (-1, None, code));
  let action =
    Option.value ~default:Error.Module_ignore
      (List.find_map
         (fun (c, a) -> if Error.code_equal c code then Some a else None)
         t.tables.module_actions)
  in
  (match action with
  | Error.Module_ignore -> ()
  | _ -> t.actions <- t.actions + 1);
  action

let actions_taken t = t.actions

let level_of (partition, process, _) =
  if partition < 0 then Error.Module_level
  else if Option.is_some process then Error.Process_level
  else Error.Partition_level

let count t matches =
  Hashtbl.fold
    (fun key n acc -> if matches key then acc + n else acc)
    t.occurrence 0

let error_count t = count t (fun _ -> true)

let level_count t level =
  count t (fun key -> Error.level_equal (level_of key) level)

let code_count t code = count t (fun (_, _, c) -> Error.code_equal c code)
