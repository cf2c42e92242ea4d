open Air_sim
open Air_model

type t = {
  store : Deadline_store.t;
  recorder : Air_obs.Span.t option;
  telemetry : Air_obs.Telemetry.t option;
  track : int;
}

let create ?recorder ?telemetry ?(store = Deadline_store.Linked_list_impl)
    ~partition () =
  { store = Deadline_store.create store;
    recorder;
    telemetry;
    track = Ident.Partition_id.index partition }

let register_deadline t ~process deadline =
  Deadline_store.register t.store ~process deadline

let unregister_deadline t ~process = Deadline_store.unregister t.store ~process

let earliest_deadline t = Deadline_store.earliest t.store
let min_deadline t = Deadline_store.min_deadline t.store

let deadline_of t ~process = Deadline_store.find t.store ~process

let deadline_count t = Deadline_store.size t.store

let clear_deadlines t = Deadline_store.clear t.store

type violation = { process : int; deadline : Time.t }

(* Lines 2–8 of Algorithm 3, entered only when the earliest deadline is
   already known to be violated: verify (and pop) deadlines in ascending
   order until one that holds. Kept out of [announce_ticks] so the common
   no-violation tick never pays the closure. *)
let collect_violations t ~now =
  let rec verify acc =
    match Deadline_store.earliest t.store with
    | Some (process, deadline) when Time.(deadline < now) ->
      Deadline_store.remove_earliest t.store;
      (match t.telemetry with
      | None -> ()
      | Some tel -> Air_obs.Telemetry.on_deadline_miss tel ~partition:t.track);
      (match t.recorder with
      | None -> ()
      | Some r ->
        Air_obs.Span.instant_value r ~now ~track:t.track ~sub:process
          ~key:"deadline" deadline "pal.deadline-miss");
      verify ({ process; deadline } :: acc)
    | Some _ | None -> List.rev acc
  in
  verify []

let announce_ticks t ~now ~elapsed ~announce_to_pos =
  (* Algorithm 3, line 1: native POS clock tick announcement, invoked with
     the number of ticks elapsed since the partition last held the
     processing resources. *)
  announce_to_pos ~now ~elapsed;
  (* Flight recorder: per-tick announcements would swamp the recorder;
     only the surrogate catch-up after a preemption gap (elapsed > 1,
     Algorithm 3 run with a multi-tick argument) is worth a mark. *)
  (match t.recorder with
  | Some r when elapsed > 1 ->
    Air_obs.Span.instant_value r ~now ~track:t.track ~key:"elapsed" elapsed
      "pal.catch-up"
  | Some _ | None -> ());
  (match t.telemetry with
  | Some tel when elapsed > 1 ->
    Air_obs.Telemetry.on_catch_up tel ~partition:t.track ~depth:elapsed
  | Some _ | None -> ());
  (* Line 2: O(1) retrieval of the earliest deadline. A deadline d is
     violated when d < now (eq. (24)); the allocation-free min-deadline
     probe keeps the steady-state tick off the option/tuple path. *)
  if Time.(now <= Deadline_store.min_deadline t.store) then []
  else collect_violations t ~now

let violations_now t ~now =
  List.filter_map
    (fun (process, deadline) ->
      if Time.(deadline < now) then Some { process; deadline } else None)
    (Deadline_store.to_sorted_list t.store)
