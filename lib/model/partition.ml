type mode = Normal | Idle | Cold_start | Warm_start

let mode_equal a b =
  match (a, b) with
  | Normal, Normal | Idle, Idle | Cold_start, Cold_start
  | Warm_start, Warm_start ->
    true
  | (Normal | Idle | Cold_start | Warm_start), _ -> false

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Normal -> "normal"
    | Idle -> "idle"
    | Cold_start -> "coldStart"
    | Warm_start -> "warmStart")

type kind = Application | System

let kind_equal a b =
  match (a, b) with
  | Application, Application | System, System -> true
  | (Application | System), _ -> false

type t = {
  id : Ident.Partition_id.t;
  name : string;
  kind : kind;
  processes : Process.spec array;
  initial_mode : mode;
}

let make ?(kind = Application) ?(initial_mode = Cold_start) ~id ~name
    processes =
  { id; name; kind; processes = Array.of_list processes; initial_mode }

let process_count t = Array.length t.processes

let process_id t q =
  if q < 0 || q >= Array.length t.processes then
    invalid_arg "Partition.process_id: index out of range";
  Ident.Process_id.make t.id q

let find_process t name =
  let rec go q =
    if q >= Array.length t.processes then None
    else if String.equal t.processes.(q).Process.name name then
      Some (q, t.processes.(q))
    else go (q + 1)
  in
  go 0
