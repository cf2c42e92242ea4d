open Air_sim

type state = Dormant | Ready | Running | Waiting

let state_equal a b =
  match (a, b) with
  | Dormant, Dormant | Ready, Ready | Running, Running | Waiting, Waiting ->
    true
  | (Dormant | Ready | Running | Waiting), _ -> false

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Dormant -> "dormant"
    | Ready -> "ready"
    | Running -> "running"
    | Waiting -> "waiting")

type periodicity = Periodic of Time.t | Aperiodic | Sporadic of Time.t

type spec = {
  name : string;
  periodicity : periodicity;
  time_capacity : Time.t;
  wcet : Time.t;
  base_priority : int;
}

let spec ?(periodicity = Aperiodic) ?(time_capacity = Time.infinity)
    ?(wcet = 0) ?(base_priority = 10) name =
  (match periodicity with
  | Periodic t | Sporadic t ->
    if t <= 0 then invalid_arg "Process.spec: non-positive period"
  | Aperiodic -> ());
  { name; periodicity; time_capacity; wcet; base_priority }

let has_deadline s = not (Time.is_infinite s.time_capacity)

type status = {
  deadline_time : Time.t;
  current_priority : int;
  state : state;
}

let initial_status s =
  { deadline_time = Time.infinity;
    current_priority = s.base_priority;
    state = Dormant }
