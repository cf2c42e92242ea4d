(* The keyword sets of the configuration language, each written once as
   (keyword, value) pairs. The loader decodes a keyword through its table
   ({!Decode.keyword}); the encoder renders a value as the first keyword
   that maps to it, so each table is also the encoder's spelling. *)

open Air_model

let booleans =
  [ ("true", true); ("false", false); ("yes", true); ("no", false) ]

let on_end =
  [ ("repeat", Air_pos.Script.Repeat); ("stop", Air_pos.Script.Stop) ]

let partition_kind =
  [ ("application", Partition.Application); ("system", Partition.System) ]

let deadline_store =
  [ ("linked-list", Air.Deadline_store.Linked_list_impl);
    ("avl-tree", Air.Deadline_store.Avl_impl);
    ("pairing-heap", Air.Deadline_store.Pairing_impl) ]

let discipline =
  [ ("fifo", Air_pos.Intra.Fifo); ("priority", Air_pos.Intra.Priority) ]

let direction =
  [ ("source", Air_ipc.Port.Source); ("destination", Air_ipc.Port.Destination) ]

let change_action =
  [ ("no-action", Schedule.No_action);
    ("warm-restart", Schedule.Warm_restart_partition);
    ("cold-restart", Schedule.Cold_restart_partition) ]

let error_code =
  List.map (fun c -> (Format.asprintf "%a" Error.pp_code c, c)) Error.all_codes

(* The atom process actions; (restart-partition MODE) and (log-then N
   ACTION) are compound forms. *)
let process_action =
  [ ("ignore", Error.Ignore_error);
    ("restart-process", Error.Restart_process);
    ("stop-process", Error.Stop_process);
    ("stop-partition", Error.Stop_partition_of_process) ]

let partition_action =
  [ ("ignore", Error.Partition_ignore);
    ("idle", Error.Partition_idle);
    ("warm-restart", Error.Partition_warm_restart);
    ("cold-restart", Error.Partition_cold_restart) ]

let module_action =
  [ ("ignore", Error.Module_ignore);
    ("shutdown", Error.Module_shutdown);
    ("reset", Error.Module_reset) ]

(* An HM (restart-partition MODE) restarts warm or cold; a fault campaign's
   restart-partition may also idle the partition. *)
let restart_mode =
  [ ("warm", Partition.Warm_start); ("cold", Partition.Cold_start) ]

let fault_restart_mode = restart_mode @ [ ("idle", Partition.Idle) ]

let section =
  [ ("code", Air_spatial.Memory.Code);
    ("data", Air_spatial.Memory.Data);
    ("stack", Air_spatial.Memory.Stack);
    ("io", Air_spatial.Memory.Io) ]

(* A fault's access direction: [true] for a write. *)
let read_write = [ ("read", false); ("write", true) ]
