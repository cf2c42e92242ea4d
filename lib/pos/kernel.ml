open Air_sim
open Air_model

type policy = Priority_preemptive | Round_robin of { quantum : int }

let pp_policy ppf = function
  | Priority_preemptive -> Format.pp_print_string ppf "priority-preemptive"
  | Round_robin { quantum } ->
    Format.fprintf ppf "round-robin(quantum=%d)" quantum

type wait_reason =
  | Delay
  | Next_release
  | On_semaphore of string
  | On_event of string
  | On_buffer of string
  | On_blackboard of string
  | On_queuing_port of int
  | Suspended

let pp_wait_reason ppf = function
  | Delay -> Format.pp_print_string ppf "delay"
  | Next_release -> Format.pp_print_string ppf "next-release"
  | On_semaphore s -> Format.fprintf ppf "semaphore %s" s
  | On_event e -> Format.fprintf ppf "event %s" e
  | On_buffer b -> Format.fprintf ppf "buffer %s" b
  | On_blackboard b -> Format.fprintf ppf "blackboard %s" b
  | On_queuing_port p -> Format.fprintf ppf "queuing-port #%d" p
  | Suspended -> Format.pp_print_string ppf "suspended"

type hooks = {
  register_deadline : process:int -> Time.t -> unit;
  unregister_deadline : process:int -> unit;
  on_state_change : process:int -> Process.state -> unit;
}

let null_hooks =
  { register_deadline = (fun ~process:_ _ -> ());
    unregister_deadline = (fun ~process:_ -> ());
    on_state_change = (fun ~process:_ _ -> ()) }

type pcb = {
  spec : Process.spec;
  mutable state : Process.state;
  mutable current_priority : int;
  mutable deadline_time : Time.t;
  mutable wait : wait_reason option;
  mutable wake_at : Time.t;
      (* Absolute instant at which a Delay wakes or a blocking wait times
         out; infinity = no timeout. *)
  mutable release_point : Time.t;
  mutable ready_seq : int;
  mutable block_seq : int;
  mutable timed_out : bool;
  mutable activations : int;
}

type t = {
  partition : Ident.Partition_id.t;
  policy : policy;
  hooks : hooks;
  pcbs : pcb array;
  mutable seq : int;
  (* Round-robin bookkeeping. *)
  mutable rr_current : int;
  mutable rr_quantum_left : int;
  (* Preemption lock: holder index and nesting level. *)
  mutable lock_holder : int option;
  mutable lock_level : int;
}

let create ~partition ~policy ~hooks specs =
  let pcbs =
    Array.map
      (fun (spec : Process.spec) ->
        { spec;
          state = Process.Dormant;
          current_priority = spec.Process.base_priority;
          deadline_time = Time.infinity;
          wait = None;
          wake_at = Time.infinity;
          release_point = Time.zero;
          ready_seq = 0;
          block_seq = 0;
          timed_out = false;
          activations = 0 })
      specs
  in
  { partition; policy; hooks; pcbs; seq = 0; rr_current = 0;
    rr_quantum_left = 0; lock_holder = None; lock_level = 0 }

let policy t = t.policy
let process_count t = Array.length t.pcbs

let pcb t q =
  if q < 0 || q >= Array.length t.pcbs then
    invalid_arg "Kernel: process index out of range";
  t.pcbs.(q)

let spec t q = (pcb t q).spec
let state t q = (pcb t q).state

let status t q =
  let p = pcb t q in
  { Process.deadline_time = p.deadline_time;
    current_priority = p.current_priority;
    state = p.state }

let activations t q = (pcb t q).activations

let take_timed_out t q =
  let p = pcb t q in
  let flag = p.timed_out in
  p.timed_out <- false;
  flag

type op_error =
  | Not_dormant
  | Already_dormant
  | Not_waiting
  | Invalid_for_periodic
  | Not_periodic
  | No_such_process

let pp_op_error ppf e =
  Format.pp_print_string ppf
    (match e with
    | Not_dormant -> "process not dormant"
    | Already_dormant -> "process already dormant"
    | Not_waiting -> "process not suspended"
    | Invalid_for_periodic -> "operation invalid for periodic process"
    | Not_periodic -> "process is not periodic"
    | No_such_process -> "no such process")

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let release_lock_if_holder t q =
  match t.lock_holder with
  | Some h when h = q ->
    t.lock_holder <- None;
    t.lock_level <- 0
  | Some _ | None -> ()

let set_state t q (p : pcb) state =
  (* A process that blocks or stops while holding the preemption lock
     releases it (ARINC 653 forbids waiting with preemption locked). *)
  (match state with
  | Process.Waiting | Process.Dormant -> release_lock_if_holder t q
  | Process.Ready | Process.Running -> ());
  if not (Process.state_equal p.state state) then begin
    p.state <- state;
    t.hooks.on_state_change ~process:q state
  end

let make_ready t q (p : pcb) =
  p.wait <- None;
  p.wake_at <- Time.infinity;
  p.ready_seq <- next_seq t;
  set_state t q p Process.Ready

(* Arm the deadline of a fresh activation released at [release]. *)
let arm_activation t q (p : pcb) ~release =
  p.activations <- p.activations + 1;
  if Process.has_deadline p.spec then begin
    p.deadline_time <- Time.add release p.spec.Process.time_capacity;
    t.hooks.register_deadline ~process:q p.deadline_time
  end

let guard t q f =
  if q < 0 || q >= Array.length t.pcbs then Error No_such_process else f (pcb t q)

(* Sporadic processes reuse the periodic machinery with their minimum
   inter-arrival time as the release separation — the earliest legal next
   release point. *)
let period_of (p : pcb) =
  match p.spec.Process.periodicity with
  | Process.Periodic period | Process.Sporadic period -> Some period
  | Process.Aperiodic -> None

let start t ~now ?(delay = Time.zero) q =
  guard t q (fun p ->
      match p.state with
      | Process.Ready | Process.Running | Process.Waiting -> Error Not_dormant
      | Process.Dormant ->
        p.current_priority <- p.spec.Process.base_priority;
        p.timed_out <- false;
        if delay = Time.zero then begin
          p.release_point <- now;
          arm_activation t q p ~release:now;
          make_ready t q p
        end
        else begin
          (* Delayed start: the first release point is now + delay; the
             deadline is armed when the release occurs. *)
          p.release_point <- Time.add now delay;
          p.wait <- Some Next_release;
          p.wake_at <- Time.infinity;
          set_state t q p Process.Waiting
        end;
        Ok ())

let stop t q =
  guard t q (fun p ->
      match p.state with
      | Process.Dormant -> Error Already_dormant
      | Process.Ready | Process.Running | Process.Waiting ->
        p.wait <- None;
        p.wake_at <- Time.infinity;
        p.deadline_time <- Time.infinity;
        t.hooks.unregister_deadline ~process:q;
        set_state t q p Process.Dormant;
        Ok ())

let suspend t ~now ?(timeout = Time.infinity) q =
  guard t q (fun p ->
      match period_of p with
      | Some _ -> Error Invalid_for_periodic
      | None -> (
        match p.state with
        | Process.Dormant -> Error Already_dormant
        | Process.Waiting -> Error Not_dormant
        | Process.Ready | Process.Running ->
          p.wait <- Some Suspended;
          p.wake_at <-
            (if Time.is_infinite timeout then Time.infinity
             else Time.add now timeout);
          p.block_seq <- next_seq t;
          set_state t q p Process.Waiting;
          Ok ()))

let resume t ~now:_ q =
  guard t q (fun p ->
      match (p.state, p.wait) with
      | Process.Waiting, Some Suspended ->
        p.timed_out <- false;
        make_ready t q p;
        Ok ()
      | _, _ -> Error Not_waiting)

let set_priority t q prio =
  guard t q (fun p ->
      p.current_priority <- prio;
      Ok ())

let periodic_wait t ~now q =
  guard t q (fun p ->
      match period_of p with
      | None -> Error Not_periodic
      | Some period ->
        (* Consecutive release points are separated by the period. A
           process that overran keeps the missed release point so that its
           (already past) deadline is armed faithfully. *)
        p.release_point <- Time.add p.release_point period;
        ignore now;
        (* PERIODIC_WAIT completes the current activation: its deadline is
           met, and the store entry moves to the next activation's deadline
           (paper Sect. 5.2 — the suspend-until-release primitive is among
           those that update the due process's deadlines). *)
        if Process.has_deadline p.spec then begin
          p.deadline_time <-
            Time.add p.release_point p.spec.Process.time_capacity;
          t.hooks.register_deadline ~process:q p.deadline_time
        end;
        p.wait <- Some Next_release;
        p.wake_at <- Time.infinity;
        p.block_seq <- next_seq t;
        set_state t q p Process.Waiting;
        Ok ())

let timed_wait t ~now q delay =
  guard t q (fun p ->
      p.wait <- Some Delay;
      p.wake_at <-
        (if Time.is_infinite delay then Time.infinity else Time.add now delay);
      p.block_seq <- next_seq t;
      set_state t q p Process.Waiting;
      Ok ())

let replenish t ~now q budget =
  guard t q (fun p ->
      if not (Process.has_deadline p.spec) then Ok ()
      else begin
        p.deadline_time <- Time.add now budget;
        t.hooks.register_deadline ~process:q p.deadline_time;
        Ok ()
      end)

let block t ~now q reason ~timeout =
  let p = pcb t q in
  p.wait <- Some reason;
  p.wake_at <-
    (if Time.is_infinite timeout then Time.infinity else Time.add now timeout);
  p.block_seq <- next_seq t;
  set_state t q p Process.Waiting

let wake t ~now:_ q ~timed_out =
  let p = pcb t q in
  match p.state with
  | Process.Waiting ->
    p.timed_out <- timed_out;
    make_ready t q p
  | Process.Dormant | Process.Ready | Process.Running -> ()

(* Announcement and scheduling run once per system clock tick; they are
   written as plain loops over the PCB array (no iterator closures, no
   references) so a steady-state tick does not allocate. *)
let announce_ticks t ~now =
  for q = 0 to Array.length t.pcbs - 1 do
    let p = t.pcbs.(q) in
    match (p.state, p.wait) with
    | Process.Waiting, Some Delay ->
      if Time.(p.wake_at <= now) then begin
        p.timed_out <- false;
        make_ready t q p
      end
    | Process.Waiting, Some Next_release ->
      if Time.(p.release_point <= now) then begin
        arm_activation t q p ~release:p.release_point;
        p.timed_out <- false;
        make_ready t q p
      end
    | Process.Waiting, Some
        ( On_semaphore _ | On_event _ | On_buffer _ | On_blackboard _
        | On_queuing_port _ | Suspended ) ->
      if Time.(p.wake_at <= now) then begin
        p.timed_out <- true;
        make_ready t q p
      end
    | Process.Waiting, None
    | (Process.Dormant | Process.Ready | Process.Running), _ ->
      ()
  done

(* Earliest instant at which [announce_ticks] would change any process
   state: the minimum over waiting processes of the delay wake-up, the
   next release point, or the blocking-wait timeout. *)
let rec next_wake_loop pcbs n q acc =
  if q >= n then acc
  else begin
    let p = pcbs.(q) in
    let acc =
      match (p.state, p.wait) with
      | Process.Waiting, Some Delay -> Time.min acc p.wake_at
      | Process.Waiting, Some Next_release -> Time.min acc p.release_point
      | Process.Waiting, Some
          ( On_semaphore _ | On_event _ | On_buffer _ | On_blackboard _
          | On_queuing_port _ | Suspended ) ->
        Time.min acc p.wake_at
      | Process.Waiting, None
      | (Process.Dormant | Process.Ready | Process.Running), _ ->
        acc
    in
    next_wake_loop pcbs n (q + 1) acc
  end

let next_wake t = next_wake_loop t.pcbs (Array.length t.pcbs) 0 Time.infinity

let has_schedulable t =
  Array.exists
    (fun p ->
      match p.state with
      | Process.Ready | Process.Running -> true
      | Process.Dormant | Process.Waiting -> false)
    t.pcbs

let ready_set t =
  let acc = ref [] in
  Array.iteri
    (fun q p ->
      match p.state with
      | Process.Ready | Process.Running -> acc := q :: !acc
      | Process.Dormant | Process.Waiting -> ())
    t.pcbs;
  List.rev !acc

let schedulable t q =
  match t.pcbs.(q).state with
  | Process.Ready | Process.Running -> true
  | Process.Dormant | Process.Waiting -> false

(* eq. (14): the heir is the highest-priority schedulable process; among
   equal priorities, the one that has been ready the longest. The heir
   selectors work on plain indices (-1 = no heir) so the per-tick
   scheduling pass never boxes an option. *)
let rec heir_priority_loop pcbs n q best =
  if q >= n then best
  else begin
    let p = pcbs.(q) in
    let best =
      match p.state with
      | Process.Ready | Process.Running ->
        if best < 0 then q
        else begin
          let pb = pcbs.(best) in
          if
            p.current_priority < pb.current_priority
            || (p.current_priority = pb.current_priority
                && p.ready_seq < pb.ready_seq)
          then q
          else best
        end
      | Process.Dormant | Process.Waiting -> best
    in
    heir_priority_loop pcbs n (q + 1) best
  end

let heir_priority t = heir_priority_loop t.pcbs (Array.length t.pcbs) 0 (-1)

(* Rotate to the next schedulable process after the current one. *)
let rec rr_find t n i tried =
  if tried >= n then -1
  else
    let q = (t.rr_current + 1 + i) mod n in
    if schedulable t q then q else rr_find t n (i + 1) (tried + 1)

let heir_round_robin t quantum =
  let n = Array.length t.pcbs in
  if t.rr_current < n && schedulable t t.rr_current && t.rr_quantum_left > 0
  then begin
    t.rr_quantum_left <- t.rr_quantum_left - 1;
    t.rr_current
  end
  else
    match rr_find t n 0 0 with
    | -1 -> -1
    | q ->
      t.rr_current <- q;
      t.rr_quantum_left <- quantum - 1;
      q

let schedule_idx t ~now:_ =
  let choice =
    match t.lock_holder with
    | Some h when schedulable t h -> h
    | Some _ | None -> (
      match t.policy with
      | Priority_preemptive -> heir_priority t
      | Round_robin { quantum } -> heir_round_robin t quantum)
  in
  (* Demote a preempted running process; promote the heir. *)
  for q = 0 to Array.length t.pcbs - 1 do
    let p = t.pcbs.(q) in
    match p.state with
    | Process.Running when q <> choice -> set_state t q p Process.Ready
    | Process.Running | Process.Dormant | Process.Ready | Process.Waiting ->
      ()
  done;
  if choice >= 0 then set_state t choice t.pcbs.(choice) Process.Running;
  choice

let schedule t ~now =
  match schedule_idx t ~now with -1 -> None | q -> Some q

(* [schedule_idx]'s choice when electing it would change no state: the
   choice is already running (so nothing is demoted or promoted). A
   round-robin election spends quantum on every call, so it is never
   steady. *)
let steady_heir t =
  match t.policy with
  | Round_robin _ -> -1
  | Priority_preemptive -> (
    let choice =
      match t.lock_holder with
      | Some h when schedulable t h -> h
      | Some _ | None -> heir_priority t
    in
    if choice < 0 then -1
    else
      match t.pcbs.(choice).state with
      | Process.Running -> choice
      | Process.Dormant | Process.Ready | Process.Waiting -> -1)

let stop_all t =
  t.lock_holder <- None;
  t.lock_level <- 0;
  Array.iteri
    (fun q p ->
      match p.state with
      | Process.Dormant -> ()
      | Process.Ready | Process.Running | Process.Waiting ->
        p.wait <- None;
        p.wake_at <- Time.infinity;
        p.deadline_time <- Time.infinity;
        t.hooks.unregister_deadline ~process:q;
        set_state t q p Process.Dormant)
    t.pcbs

let lock_preemption t ~process =
  guard t process (fun p ->
      match p.state with
      | Process.Running -> (
        match t.lock_holder with
        | Some h when h <> process -> Error Not_waiting
        | Some _ | None ->
          t.lock_holder <- Some process;
          t.lock_level <- t.lock_level + 1;
          Ok t.lock_level)
      | Process.Dormant | Process.Ready | Process.Waiting ->
        Error Not_waiting)

let unlock_preemption t ~process =
  guard t process (fun _ ->
      match t.lock_holder with
      | Some h when h = process ->
        t.lock_level <- t.lock_level - 1;
        if t.lock_level <= 0 then begin
          t.lock_holder <- None;
          t.lock_level <- 0;
          Ok 0
        end
        else Ok t.lock_level
      | Some _ | None -> Error Not_waiting)

let preemption_locked t = t.lock_holder <> None

let waiters matching t =
  let acc = ref [] in
  Array.iteri
    (fun q p ->
      match (p.state, p.wait) with
      | Process.Waiting, Some reason when matching reason ->
        acc := (q, p) :: !acc
      | (Process.Dormant | Process.Ready | Process.Running | Process.Waiting), _
        ->
        ())
    t.pcbs;
  List.rev !acc

let waiters_fifo t pred =
  waiters pred t
  |> List.sort (fun (_, a) (_, b) -> Int.compare a.block_seq b.block_seq)
  |> List.map fst

let waiters_priority t pred =
  waiters pred t
  |> List.sort (fun (_, a) (_, b) ->
         match Int.compare a.current_priority b.current_priority with
         | 0 -> Int.compare a.block_seq b.block_seq
         | c -> c)
  |> List.map fst

let port_waiter t port =
  let best = ref (-1) in
  for q = 0 to Array.length t.pcbs - 1 do
    let p = t.pcbs.(q) in
    match (p.state, p.wait) with
    | Process.Waiting, Some (On_queuing_port id)
      when id = port
           && (!best < 0 || p.block_seq < t.pcbs.(!best).block_seq) ->
      best := q
    | (Process.Dormant | Process.Ready | Process.Running | Process.Waiting), _
      ->
      ()
  done;
  !best

let find_by_name t name =
  let n = Array.length t.pcbs in
  let rec go q =
    if q >= n then None
    else if String.equal t.pcbs.(q).spec.Process.name name then Some q
    else go (q + 1)
  in
  go 0

let pp ppf t =
  Format.fprintf ppf "@[<v2>%a POS (%a):" Ident.Partition_id.pp t.partition
    pp_policy t.policy;
  Array.iteri
    (fun q p ->
      Format.fprintf ppf "@,%d %s: %a p'=%d D'=%a%a" q p.spec.Process.name
        Process.pp_state p.state p.current_priority Time.pp p.deadline_time
        (fun ppf -> function
          | Some r -> Format.fprintf ppf " waiting(%a)" pp_wait_reason r
          | None -> ())
        p.wait)
    t.pcbs;
  Format.fprintf ppf "@]"
