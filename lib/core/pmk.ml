open Air_sim
open Air_model
open Ident

type tick_outcome = {
  mutable schedule_switched : (Schedule_id.t * Schedule_id.t) option;
  mutable context_switch :
    (Partition_id.t option * Partition_id.t option) option;
  mutable elapsed : Time.t;
  mutable change_action : (Partition_id.t * Schedule.change_action) option;
  mutable frame_closed : Air_obs.Telemetry.frame option;
}

type t = {
  schedules : Schedule.t array;
  tables : Schedule.preemption_point array array;
  partition_count : int;
  mutable ticks : Time.t;
  mutable current_schedule : int;
  mutable next_schedule : int;
  mutable last_schedule_switch : Time.t;
  mutable table_iterator : int;
  (* Flattened view of the current schedule, rebuilt only when a pending
     switch becomes effective: the steady-state tick reads these four
     fields instead of chasing schedules/tables and re-deriving the MTF
     offset with division. [offset] is the running tick-within-MTF
     position ([-1] before the first tick); [next_fire] is the offset at
     which the preemption-table entry under [table_iterator] fires. *)
  mutable cur_mtf : int;
  mutable cur_table : Schedule.preemption_point array;
  mutable cur_len : int;
  mutable next_fire : Time.t;
  mutable offset : int;
  out : tick_outcome;
      (* Reused outcome record: [tick] overwrites its fields in place so a
         steady-state tick allocates nothing. Consumers must copy what they
         need before the next [tick]. *)
  mutable heir_partition : Partition_id.t option;
  mutable active_partition : Partition_id.t option;
  last_tick : Time.t array;
      (* Per partition: last tick at which it held the processing
         resources (Algorithm 2 bookkeeping). *)
  pending_action : Schedule.change_action option array;
      (* Per partition: ScheduleChangeAction awaiting the first dispatch
         after a schedule switch. *)
  m_ticks : Air_obs.Metrics.counter;
  m_schedule_switches : Air_obs.Metrics.counter;
  m_context_switches : Air_obs.Metrics.counter;
  m_dispatcher_elapsed : Air_obs.Metrics.histogram;
      (* Distribution of elapsed-tick gaps accounted at dispatch — the
         quantity Algorithm 2 hands to the PAL. *)
  recorder : Air_obs.Span.t option;
      (* Flight recorder: partition-window spans opened/closed by the
         dispatcher, schedule-switch and change-action instants. *)
  telemetry : Air_obs.Telemetry.t option;
      (* Telemetry accumulator: fed a dispatch-jitter sample per context
         switch; its frame is closed at every MTF boundary. Busy/idle
         occupancy is sampled by the executive, once per global tick. *)
  allotted : int array array;
      (* Per schedule: each partition's total window time per MTF —
         precomputed so frame close stays off the window lists. *)
  frame_owner : bool;
      (* Whether this scheduler closes telemetry frames at MTF boundaries.
         Exactly one lane of a multicore executive owns the frame. *)
  lane : int;
      (* Lane index within a multicore executive; the sub-lane of every
         partition-window span this scheduler records, so the timeline can
         tell which core ran the window. 0 for a single-core module. *)
}

let create ?metrics ?recorder ?telemetry ?(frame_owner = true) ?(lane = 0)
    ?window_allotment ?initial_schedule ~partition_count schedules_list =
  (match Validate.validate_set schedules_list with
  | [] -> ()
  | d :: _ ->
    invalid_arg
      (Format.asprintf "Pmk.create: invalid schedules: %a"
         Validate.pp_diagnostic d));
  let n = List.length schedules_list in
  let schedules = Array.make n (List.hd schedules_list) in
  List.iter
    (fun (s : Schedule.t) ->
      let i = Schedule_id.index s.id in
      if i >= n then
        invalid_arg "Pmk.create: schedule identifiers must be dense";
      schedules.(i) <- s)
    schedules_list;
  Array.iteri
    (fun i (s : Schedule.t) ->
      if Schedule_id.index s.id <> i then
        invalid_arg "Pmk.create: duplicate or non-dense schedule identifiers";
      List.iter
        (fun (r : Schedule.requirement) ->
          if Partition_id.index r.partition >= partition_count then
            invalid_arg "Pmk.create: schedule references unknown partition")
        s.requirements)
    schedules;
  let initial =
    match initial_schedule with
    | None -> 0
    | Some id ->
      let i = Schedule_id.index id in
      if i >= n then invalid_arg "Pmk.create: initial schedule out of range";
      i
  in
  let tables = Array.map Schedule.preemption_table schedules in
  let allotted =
    match window_allotment with
    | Some a -> a
    | None ->
      Array.map
        (fun s ->
          Array.init partition_count (fun i ->
              Schedule.total_window_time s (Partition_id.make i)))
        schedules
  in
  (match telemetry with
  | Some tel when frame_owner ->
    Air_obs.Telemetry.prime tel ~schedule:initial ~allotted:allotted.(initial)
  | Some _ | None -> ());
  let reg =
    match metrics with
    | Some reg -> reg
    | None -> Air_obs.Metrics.create ()
  in
  { schedules;
    tables;
    partition_count;
    ticks = -1;
    current_schedule = initial;
    next_schedule = initial;
    last_schedule_switch = Time.zero;
    table_iterator = 0;
    cur_mtf = schedules.(initial).Schedule.mtf;
    cur_table = tables.(initial);
    cur_len = Array.length tables.(initial);
    next_fire = tables.(initial).(0).Schedule.tick;
    offset = -1;
    out =
      { schedule_switched = None;
        context_switch = None;
        elapsed = Time.zero;
        change_action = None;
        frame_closed = None };
    heir_partition = None;
    active_partition = None;
    last_tick = Array.make (Stdlib.max 1 partition_count) Time.zero;
    pending_action = Array.make (Stdlib.max 1 partition_count) None;
    m_ticks = Air_obs.Metrics.counter reg "pmk.ticks";
    m_schedule_switches = Air_obs.Metrics.counter reg "pmk.schedule_switches";
    m_context_switches = Air_obs.Metrics.counter reg "pmk.context_switches";
    m_dispatcher_elapsed =
      Air_obs.Metrics.histogram reg "pmk.dispatcher_elapsed";
    recorder;
    telemetry;
    allotted;
    frame_owner;
    lane }

let schedule_count t = Array.length t.schedules
let schedules t = Array.copy t.schedules

let schedule t id =
  let i = Schedule_id.index id in
  if i >= Array.length t.schedules then
    invalid_arg "Pmk.schedule: no such schedule";
  t.schedules.(i)

let current_schedule t = t.schedules.(t.current_schedule).Schedule.id
let next_schedule t = t.schedules.(t.next_schedule).Schedule.id
let last_schedule_switch t = t.last_schedule_switch
let ticks t = t.ticks
let active_partition t = t.active_partition
let heir_partition t = t.heir_partition

type switch_error = No_such_schedule of int | Same_schedule

let request_schedule_switch t id =
  let i = Schedule_id.index id in
  if i >= Array.length t.schedules then Error (No_such_schedule i)
  else begin
    let no_action = i = t.current_schedule && t.next_schedule = t.current_schedule in
    t.next_schedule <- i;
    if no_action then Error Same_schedule else Ok ()
  end

let mtf_position t =
  (* The running offset tracks [(ticks - last_schedule_switch) mod mtf]
     exactly (both reset together at a switch); [-1] only before the first
     tick, where the position is 0 by convention. *)
  if t.offset < 0 then 0 else t.offset

(* Refresh the flattened schedule view after [current_schedule] or
   [table_iterator] changed. *)
let rebuild_schedule_cache t =
  t.cur_mtf <- t.schedules.(t.current_schedule).Schedule.mtf;
  t.cur_table <- t.tables.(t.current_schedule);
  t.cur_len <- Array.length t.cur_table;
  t.next_fire <- t.cur_table.(t.table_iterator).Schedule.tick

(* Cold half of Algorithm 1, lines 3–7: a pending schedule switch becomes
   effective at the start of a major time frame. Allocation here is fine —
   switches are request-driven and happen at most once per MTF. *)
let effect_schedule_switch t =
  let from = t.schedules.(t.current_schedule).Schedule.id in
  t.current_schedule <- t.next_schedule;
  t.last_schedule_switch <- t.ticks;
  t.table_iterator <- 0;
  rebuild_schedule_cache t;
  Air_obs.Metrics.incr t.m_schedule_switches;
  (* Module-track instant emitted by the frame owner only: every lane of a
     multicore executive switches at the same boundary, one record
     suffices. *)
  (match t.recorder with
  | None -> ()
  | Some _ when not t.frame_owner -> ()
  | Some r ->
    Air_obs.Span.instant r ~now:t.ticks ~track:(-1) "schedule-switch"
      ~detail:
        (Printf.sprintf "%s -> %s"
           (t.schedules.(Schedule_id.index from)).Schedule.name
           (t.schedules.(t.current_schedule)).Schedule.name));
  (* Arm each partition's ScheduleChangeAction, applied at its first
     dispatch under the new schedule (Sect. 4.3). *)
  let s = t.schedules.(t.current_schedule) in
  List.iter
    (fun pid ->
      match Schedule.change_action_for s pid with
      | Schedule.No_action -> ()
      | action -> t.pending_action.(Partition_id.index pid) <- Some action)
    (Schedule.partitions s);
  Some (from, s.Schedule.id)

(* Algorithm 1 — AIR Partition Scheduler featuring mode-based schedules.
   The hot path is a counter increment, a wrap test and one equality
   against the cached next preemption offset; every preemption table has a
   tick-0 entry and the iterator is back at entry 0 exactly at offset 0,
   so the cached fire test agrees with the original table lookup at MTF
   boundaries, in particular where a switch becomes effective. *)
let partition_scheduler t =
  t.ticks <- t.ticks + 1;
  Air_obs.Metrics.incr t.m_ticks;
  let offset = t.offset + 1 in
  let offset = if offset >= t.cur_mtf then 0 else offset in
  t.offset <- offset;
  if offset <> t.next_fire then None
  else begin
    let switched =
      if t.current_schedule <> t.next_schedule && offset = 0 then
        effect_schedule_switch t
      else None
    in
    (* Lines 8–9: select the heir partition and advance the iterator. *)
    t.heir_partition <- t.cur_table.(t.table_iterator).Schedule.heir;
    t.table_iterator <- (t.table_iterator + 1) mod t.cur_len;
    t.next_fire <- t.cur_table.(t.table_iterator).Schedule.tick;
    switched
  end

(* Algorithm 2 — AIR Partition Dispatcher featuring mode-based schedules.
   Writes its result into [t.out] (the reused outcome record) instead of
   allocating one per tick; [schedule_switched]/[frame_closed] are filled
   by [tick]. *)
let partition_dispatcher t =
  let out = t.out in
  let same =
    match (t.heir_partition, t.active_partition) with
    | None, None -> true
    | Some h, Some a -> Partition_id.equal h a
    | None, Some _ | Some _, None -> false
  in
  if same then begin
    (* Keep lastTick current while the partition runs, so that elapsed
       accounting restarts cleanly after idle gaps. *)
    (match t.active_partition with
    | Some p ->
      t.last_tick.(Partition_id.index p) <- t.ticks;
      out.elapsed <- 1
    | None -> out.elapsed <- Time.zero);
    out.context_switch <- None;
    out.change_action <- None
  end
  else begin
    let previous = t.active_partition in
    (* SAVECONTEXT / lastTick bookkeeping for the outgoing partition. *)
    (match previous with
    | Some p -> t.last_tick.(Partition_id.index p) <- t.ticks - 1
    | None -> ());
    (* Flight recorder: close the outgoing partition's window span, open
       the heir's. The span interval [dispatch, preemption) matches the
       scheduling-table window [offset, offset + duration). *)
    (match t.recorder with
    | None -> ()
    | Some r ->
      (match previous with
      | Some p ->
        Air_obs.Span.end_span r ~now:t.ticks ~track:(Partition_id.index p)
      | None -> ());
      (match t.heir_partition with
      | Some h ->
        Air_obs.Span.begin_span r ~now:t.ticks ~track:(Partition_id.index h)
          ~sub:t.lane
          ~detail:(t.schedules.(t.current_schedule)).Schedule.name
          "partition-window"
      | None -> ()));
    let elapsed, change_action =
      match t.heir_partition with
      | None -> (Time.zero, None)
      | Some h ->
        let hi = Partition_id.index h in
        let elapsed = t.ticks - t.last_tick.(hi) in
        Air_obs.Metrics.observe t.m_dispatcher_elapsed elapsed;
        (* Telemetry: dispatch jitter — ticks between the scheduling-table
           window start (the preemption point the scheduler just consumed)
           and this context switch. The discrete PMK dispatches in the same
           tick as the preemption point, so any nonzero value is a real
           anomaly worth a watchdog. *)
        (match t.telemetry with
        | None -> ()
        | Some tel ->
          let len = t.cur_len in
          let entry = t.cur_table.((t.table_iterator + len - 1) mod len) in
          let off = if t.offset < 0 then 0 else t.offset in
          let jitter =
            (((off - entry.Schedule.tick) mod t.cur_mtf) + t.cur_mtf)
            mod t.cur_mtf
          in
          Air_obs.Telemetry.on_dispatch tel ~partition:hi ~jitter);
        t.last_tick.(hi) <- t.ticks;
        (* PENDINGSCHEDULECHANGEACTION(heirPartition). *)
        let action =
          match t.pending_action.(hi) with
          | Some a ->
            t.pending_action.(hi) <- None;
            (match t.recorder with
            | None -> ()
            | Some r ->
              Air_obs.Span.instant r ~now:t.ticks ~track:hi
                ~detail:
                  (Format.asprintf "%a" Schedule.pp_change_action a)
                "schedule-change-action");
            Some (h, a)
          | None -> None
        in
        (elapsed, action)
    in
    t.active_partition <- t.heir_partition;
    Air_obs.Metrics.incr t.m_context_switches;
    out.context_switch <- Some (previous, t.active_partition);
    out.elapsed <- elapsed;
    out.change_action <- change_action
  end

let tick t =
  let switched = partition_scheduler t in
  (* Telemetry frame close at the MTF boundary: the boundary tick opens the
     new frame, so the close runs after the scheduler (which may have made
     a pending schedule switch effective — the new frame runs under the new
     schedule) and before the executive accumulates this tick's
     occupancy. *)
  let frame_closed =
    match t.telemetry with
    | None -> None
    | Some _ when not t.frame_owner -> None
    | Some tel ->
      if t.offset = 0 && t.ticks > Air_obs.Telemetry.frame_start tel then
        Some
          (Air_obs.Telemetry.close_frame tel ~now:t.ticks
             ~next_schedule:t.current_schedule
             ~next_allotted:t.allotted.(t.current_schedule))
      else None
  in
  partition_dispatcher t;
  let out = t.out in
  out.schedule_switched <- switched;
  out.frame_closed <- frame_closed;
  out

(* --- Skip-ahead support -------------------------------------------------- *)

(* The absolute tick at which the preemption table next fires. Between two
   consecutive fires the heir never changes, no schedule switch can become
   effective and no MTF boundary passes (boundaries coincide with the
   table's offset-0 entry), so the executive may batch the whole gap. *)
let next_preemption_tick t =
  let base = t.ticks + 1 in
  let off = t.offset + 1 in
  let off = if off >= t.cur_mtf then 0 else off in
  let delta = (((t.next_fire - off) mod t.cur_mtf) + t.cur_mtf) mod t.cur_mtf in
  base + delta

(* Batch-advance the clock across a span the caller has proven quiescent:
   no preemption-table fire in (ticks, ticks + n], the heir equals the
   active partition, and no partition-level work is pending. Equivalent to
   [n] calls of [tick] whose outcomes are all same-heir/no-event. *)
let skip t ~ticks:n =
  if n > 0 then begin
    t.ticks <- t.ticks + n;
    (* The caller guarantees no preemption-table fire in the span, so the
       offset cannot wrap past an MTF boundary; the mod merely re-derives
       the running position in one step instead of n increments. *)
    t.offset <- (t.offset + n) mod t.cur_mtf;
    Air_obs.Metrics.add t.m_ticks n;
    match t.active_partition with
    | Some p -> t.last_tick.(Partition_id.index p) <- t.ticks
    | None -> ()
  end

let pp ppf t =
  Format.fprintf ppf
    "PMK: ticks=%a schedule=%a next=%a lastSwitch=%a active=%a heir=%a"
    Time.pp t.ticks Schedule_id.pp (current_schedule t) Schedule_id.pp
    (next_schedule t) Time.pp t.last_schedule_switch
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "idle"
      | Some p -> Partition_id.pp ppf p)
    t.active_partition
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "idle"
      | Some p -> Partition_id.pp ppf p)
    t.heir_partition
