(* The clock-tick executive — top layer of the decomposed system. State
   and lifecycle live in [Runtime], construction in [Boot], script
   interpretation in [Interp]; this module drives the PMK lanes off the
   global clock, announces elapsed time to the active partitions' PALs
   (Algorithm 3), runs the heir process, and exposes observation,
   intervention and fault-injection surfaces. It also provides the
   quiescence and next-event probes the [Air_exec] executive uses for O(1)
   skip-ahead across idle and steady-compute spans. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air_spatial
open Ident
include Runtime

let create = Boot.create

(* --- The system clock tick --------------------------------------------- *)

(* Temporal-health watchdogs: a frame just closed at the MTF boundary;
   judge it against the watchdog of the schedule it ran under (after a
   mode-based switch the new frame is judged by the new schedule's
   watchdog) and raise one Temporal_degradation error per offending scope —
   at most one module-level error and one per breaching partition per
   frame, so a configured HM action fires exactly once per offending
   frame. *)
let handle_closed_frame t (frame : Air_obs.Telemetry.frame) =
  match t.telemetry with
  | None -> ()
  | Some tel ->
    let wd = Air_obs.Telemetry.watchdog_for tel ~schedule:frame.f_schedule in
    (match Air_obs.Telemetry.breaches wd frame with
    | [] -> ()
    | breaches ->
      let detail scope_breaches =
        Format.asprintf "frame %d: %a" frame.f_index
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
             Air_obs.Telemetry.pp_breach)
          scope_breaches
      in
      let module_breaches, partition_breaches =
        List.partition
          (fun b -> Air_obs.Telemetry.breach_partition b = None)
          breaches
      in
      if module_breaches <> [] then
        report_module_error t Error.Temporal_degradation
          ~detail:(detail module_breaches);
      Array.iteri
        (fun i prt ->
          match
            List.filter
              (fun b -> Air_obs.Telemetry.breach_partition b = Some i)
              partition_breaches
          with
          | [] -> ()
          | mine ->
            report_partition_error t prt Error.Temporal_degradation
              ~detail:(detail mine))
        t.partitions)

(* First-level outcome bookkeeping for one lane's tick. Under a broadcast
   switch every lane switches at the same boundary; the module-level
   Schedule_switch event is emitted once, from the primary lane. *)
let apply_outcome t ~primary (o : Pmk.tick_outcome) =
  (match o.Pmk.schedule_switched with
  | Some (from, to_) when primary -> emit t (Event.Schedule_switch { from; to_ })
  | Some _ | None -> ());
  (match o.Pmk.context_switch with
  | Some (from, to_) -> emit t (Event.Context_switch { from; to_ })
  | None -> ());
  (match o.Pmk.change_action with
  | Some (pid, action) ->
    let prt = prt_of t pid in
    emit t (Event.Change_action { partition = pid; action });
    (* Restart actions apply to partitions running in normal mode
       (Sect. 4.2); a partition still initializing restarts anyway. *)
    (match action with
    | Schedule.No_action -> ()
    | Schedule.Warm_restart_partition ->
      begin_restart t prt Partition.Warm_start
    | Schedule.Cold_restart_partition ->
      begin_restart t prt Partition.Cold_start)
  | None -> ());
  match o.Pmk.frame_closed with
  | Some frame -> handle_closed_frame t frame
  | None -> ()

(* One tick of the partition currently holding a core: complete
   initialization at first dispatch, announce elapsed time to the PAL
   (Algorithm 3) with deadline verification, then let the POS pick the
   heir process and run one tick of its script. *)
let drive_partition t prt ~elapsed =
  (* Partition initialization completes at first dispatch. *)
  (match prt.mode with
  | Partition.Cold_start | Partition.Warm_start -> initialize_partition t prt
  | Partition.Normal | Partition.Idle -> ());
  match prt.mode with
  | Partition.Normal ->
    let tnow = now t in
    (* PAL surrogate clock tick announcement (Algorithm 3): announce
       the elapsed ticks to the POS, then verify deadlines. An injected
       clock-jitter fault suppresses the announcement — the tick is
       lost at the PMK, the running process keeps computing — and the
       withheld ticks are announced as one catch-up burst when the
       jitter window ends (exercising the PAL catch-up path). *)
    if elapsed > 0 && prt.jitter_left > 0 then begin
      prt.jitter_left <- prt.jitter_left - 1;
      prt.jitter_deferred <- prt.jitter_deferred + elapsed
    end
    else if elapsed > 0 || prt.jitter_deferred > 0 then begin
      let elapsed = elapsed + prt.jitter_deferred in
      prt.jitter_deferred <- 0;
      (* [announce_to_pos] is the closure built once at boot; the guard
         around the violation loop keeps the (empty) common case from
         constructing the reporting closure. *)
      match
        Pal.announce_ticks prt.pal ~now:tnow ~elapsed
          ~announce_to_pos:prt.announce_to_pos
      with
      | [] -> ()
      | violations ->
        List.iter
          (fun { Pal.process; deadline } ->
            emit t
              (Event.Deadline_violation
                 { process = Partition.process_id prt.setup.partition process;
                   deadline });
            report_process_error t prt ~process Error.Deadline_missed
              ~detail:
                (Format.asprintf "deadline %a missed at %a" Time.pp deadline
                   Time.pp tnow))
          violations
    end;
    (* Second scheduling level: the POS selects the heir process and it
       executes one tick of its body — unless the partition owes
       interference stall, in which case the tick is consumed as slowdown
       instead (the contention model's "extra consumed window ticks").
       Stall is only ever consumed when a process is schedulable, so a
       blocked partition does not burn its debt while idle. *)
    if
      Option.is_none t.halt_reason
      && Partition.mode_equal prt.mode Partition.Normal
    then begin
      let q = Kernel.schedule_idx prt.kernel ~now:(now t) in
      if q >= 0 then begin
        match t.contention with
        | None -> Interp.run_task_tick t prt q
        | Some c ->
          let pi = Partition_id.index prt.setup.partition.Partition.id in
          if Contention.stall_pending c ~partition:pi then begin
            Contention.consume_stall c ~partition:pi;
            match t.telemetry with
            | Some tel -> Air_obs.Telemetry.on_throttled tel ~partition:pi
            | None -> ()
          end
          else Interp.run_task_tick t prt q
      end
    end
  | Partition.Idle | Partition.Cold_start | Partition.Warm_start -> ()

(* MTF-boundary window rollover for the contention model. Every
   preemption table carries a tick-0 entry, so the executive's skip-ahead
   never crosses an MTF boundary — boundary ticks always execute through
   [step], in every engine mode, which is what makes this per-tick hook
   sound. It runs after the lane tick (the telemetry frame for the closed
   window is already snapshotted) and before any partition is driven, so
   the boundary tick's charges land in the new window — mirroring the
   boundary-tick-opens-the-new-frame telemetry convention. The new
   window's budgets and co-runner pressure are pushed into the frame
   accumulator here. *)
let contention_rollover t c =
  if Pmk.mtf_position (Pmk_mc.core t.lane 0) = 0 then begin
    let tnow = now t in
    if tnow > Contention.window_start c then begin
      Contention.rollover c ~now:tnow;
      match t.telemetry with
      | None -> ()
      | Some tel ->
        for p = 0 to Array.length t.partitions - 1 do
          Air_obs.Telemetry.set_interference_window tel ~partition:p
            ~budget:(Contention.budget c p)
            ~co_pressure:(Contention.co_runner_pressure c p)
        done
    end
  end

(* Busy/idle occupancy is one combined sample per global tick (validated
   tables keep at most one lane busy under sharded schedules); no lane's
   scheduler samples it. *)
let combined_active_index t =
  match Pmk_mc.combined_active t.lane with
  | Some p -> Partition_id.index p
  | None -> -1

(* A module halted by an HM action raised earlier in this tick — from any
   lane's outcome or from a partition driven on a lower lane — drives no
   further partition. *)
let step t =
  match t.halt_reason with
  | Some _ -> ()
  | None ->
    let outcomes = Pmk_mc.tick t.lane in
    for core = 0 to Array.length outcomes - 1 do
      apply_outcome t ~primary:(core = 0) outcomes.(core)
    done;
    (match t.telemetry with
    | Some tel ->
      Air_obs.Telemetry.on_tick tel ~active:(combined_active_index t)
    | None -> ());
    (match t.contention with
    | Some c -> contention_rollover t c
    | None -> ());
    let actives = Pmk_mc.active_partitions t.lane in
    for core = 0 to Array.length actives - 1 do
      match actives.(core) with
      | Some pid when Option.is_none t.halt_reason ->
        (* Lane-local charging: every shared-resource touch made while
           this core's partition is driven debits this lane's account. *)
        (match t.contention with
        | Some c -> Contention.set_lane c core
        | None -> ());
        drive_partition t (prt_of t pid) ~elapsed:outcomes.(core).Pmk.elapsed
      | Some _ | None -> ()
    done

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

(* The MTF of the schedule running now and the ticks executed within its
   frame; 0 exactly at a boundary. *)
let frame_position t =
  let pmk = Pmk_mc.core t.lane 0 in
  let mtf = (Pmk.schedule pmk (Pmk.current_schedule pmk)).Schedule.mtf in
  let executed = Pmk.ticks pmk - Pmk.last_schedule_switch pmk + 1 in
  (mtf, ((executed mod mtf) + mtf) mod mtf)

let run_mtfs_with ~advance t n =
  for _ = 1 to n do
    let mtf, into = frame_position t in
    if into = 0 then begin
      (* Exactly at a boundary a pending mode-based switch becomes
         effective on the next tick, possibly to a schedule with a
         different MTF: execute the boundary tick first, then finish the
         frame under the schedule that is actually running (running the
         old [mtf] blindly would mis-size the frame). *)
      advance 1;
      let mtf, into = frame_position t in
      if into > 0 then advance (mtf - into)
    end
    else advance (mtf - into)
  done

let run_mtfs t n = run_mtfs_with ~advance:(fun ticks -> run t ~ticks) t n

let halted t = t.halt_reason

(* --- Quiescence and skip-ahead (the [Air_exec] executive) --------------- *)

(* Ticks the heir of a normal-mode partition would spend purely computing
   from the next tick on: the POS re-elects it without any state change
   and it sits inside a [Compute] action, whose last tick is excluded.
   0 when there is no such heir. *)
let steady_run prt =
  match prt.mode with
  | Partition.Normal ->
    let q = Kernel.steady_heir prt.kernel in
    if q < 0 then 0 else Interp.compute_run prt q
  | Partition.Idle | Partition.Cold_start | Partition.Warm_start -> 0

(* A span of ticks is quiet — skippable without observable difference —
   when every partition currently holding a core would only let time pass
   under per-tick execution: parked in idle mode, or in normal mode with
   no pending clock-jitter bookkeeping, no owed interference stall, and
   either no schedulable process or a steady computing heir
   ([steady_run]). A computing heir's ticks change only its compute
   counter, the first tick's wakeup flags and its bandwidth account;
   [skip] applies all three. Partitions not holding a core are never
   driven per-tick, so they cannot constrain the span; starting modes
   initialize at the dispatch tick itself, which is always an event
   tick. The stall conjunct keeps a partition in slowdown interesting to
   the executive's clock; it is trivially true when no contention model
   is configured. *)
let prt_quiescent t prt =
  match prt.mode with
  | Partition.Idle -> true
  | Partition.Cold_start | Partition.Warm_start -> false
  | Partition.Normal ->
    prt.jitter_left = 0 && prt.jitter_deferred = 0
    && (match t.contention with
       | None -> true
       | Some c ->
         not
           (Contention.stall_pending c
              ~partition:
                (Partition_id.index prt.setup.partition.Partition.id)))
    && ((not (Kernel.has_schedulable prt.kernel)) || steady_run prt > 0)

let rec lanes_quiescent t actives n i =
  i >= n
  || (match actives.(i) with
     | None -> true
     | Some pid -> prt_quiescent t (prt_of t pid))
     && lanes_quiescent t actives n (i + 1)

let quiescent t =
  (* Probed once per executive tick while skip-ahead hunts for a span, so
     it must not allocate: it scans the reused actives buffer via a
     top-level loop. A module that has not run its first tick is not
     quiescent: that tick dispatches the first windows. *)
  let actives = Pmk_mc.active_partitions t.lane in
  Pmk_mc.ticks t.lane >= 0 && lanes_quiescent t actives (Array.length actives) 0

(* The next tick at which a currently-active partition becomes interesting
   again: a blocked process' wake/release instant, the tick after its
   earliest PAL deadline (verification pops deadlines strictly before
   [now], so a deadline [d] first raises a violation at [d + 1]), and for
   a steady computing heir the tick that ends its action or the first
   tick whose compute charge would cross a contention threshold (budget
   blow or stall arming; [charging] heirs compute side by side). Inactive
   partitions report through their next dispatch, which the lane's
   preemption table already bounds. [Time.add] saturates at infinity, so
   an empty deadline store contributes no bound. *)
let prt_event_bound t pid ~lane ~charging acc =
  let prt = prt_of t pid in
  match prt.mode with
  | Partition.Idle | Partition.Cold_start | Partition.Warm_start -> acc
  | Partition.Normal ->
    let acc =
      Time.min
        (Time.min acc (Time.add (Pal.min_deadline prt.pal) 1))
        (Kernel.next_wake prt.kernel)
    in
    let run = steady_run prt in
    if run = 0 then acc
    else
      let run =
        match t.contention with
        | None -> run
        | Some c ->
          Int.min run
            (Contention.compute_headroom c
               ~partition:(Partition_id.index pid) ~lane ~charging)
      in
      Time.min acc (now t + run + 1)

let rec lanes_charging t actives n i acc =
  if i >= n then acc
  else
    lanes_charging t actives n (i + 1)
      (match actives.(i) with
      | Some pid when steady_run (prt_of t pid) > 0 -> acc + 1
      | Some _ | None -> acc)

let rec lanes_event_bound t actives ~charging n i acc =
  if i >= n then acc
  else
    let acc =
      match actives.(i) with
      | None -> acc
      | Some pid -> prt_event_bound t pid ~lane:i ~charging acc
    in
    lanes_event_bound t actives ~charging n (i + 1) acc

let next_partition_event t =
  let actives = Pmk_mc.active_partitions t.lane in
  let n = Array.length actives in
  lanes_event_bound t actives
    ~charging:(lanes_charging t actives n 0 0)
    n 0 Time.infinity

(* A steady computing heir's share of a skipped span, charged to the lane
   its partition holds. *)
let skip_partition t pid ~lane ~ticks =
  let prt = prt_of t pid in
  if steady_run prt > 0 then begin
    (match t.contention with
    | Some c -> Contention.set_lane c lane
    | None -> ());
    Interp.skip_compute t prt (Kernel.steady_heir prt.kernel) ~ticks
  end

let rec lanes_skip t actives n i ~ticks =
  if i < n then begin
    (match actives.(i) with
    | Some pid -> skip_partition t pid ~lane:i ~ticks
    | None -> ());
    lanes_skip t actives n (i + 1) ~ticks
  end

(* Batch-advance the global clock across a quiet span, applying each
   steady heir's compute progress. The caller (the executive) guarantees
   [quiescent] holds and that no lane preemption, partition event,
   telemetry frame boundary or injection falls inside the span; under
   that contract the result is bit-identical to [ticks] per-tick steps. *)
let skip t ~ticks =
  if ticks > 0 then begin
    let actives = Pmk_mc.active_partitions t.lane in
    lanes_skip t actives (Array.length actives) 0 ~ticks;
    Pmk_mc.skip t.lane ~ticks;
    (* The span's share of the combined occupancy sample of [step]. *)
    match t.telemetry with
    | Some tel ->
      Air_obs.Telemetry.on_ticks tel ~active:(combined_active_index t)
        ~count:ticks
    | None -> ()
  end

(* --- Observation -------------------------------------------------------- *)

let trace t = t.trace
let lane t = t.lane
let pmk t = Pmk_mc.core t.lane 0
let cores t = Pmk_mc.core_count t.lane
let hm t = t.hm
let router t = t.router
let protection t = t.protection
let metrics t = t.metrics

let metrics_snapshot t = Air_obs.Metrics.snapshot t.metrics

let event_counts t =
  Array.to_list (Array.mapi (fun k n -> (Event.labels.(k), n)) t.events)
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let metrics_report t =
  Air_obs.Report.to_string ~events:(event_counts t) (metrics_snapshot t)

let metrics_json t =
  Air_obs.Report.to_json ~events:(event_counts t) (metrics_snapshot t)

let recorder t = t.cfg.recorder
let causal t = t.cfg.causal
let telemetry t = t.telemetry
let contention t = t.contention

let telemetry_frames t =
  match t.telemetry with
  | None -> []
  | Some tel -> Air_obs.Telemetry.frames tel

(* Close the final partial frame so the tail of a run that does not end
   exactly on an MTF boundary still reaches the exported frame list.
   Watchdogs are deliberately not evaluated on a flushed partial frame. *)
let telemetry_flush t =
  match t.telemetry with
  | None -> None
  | Some tel -> Air_obs.Telemetry.flush tel ~now:(now t + 1)

let spans t =
  match t.cfg.recorder with
  | None -> []
  | Some r -> Air_obs.Span.spans r

let track_names t =
  (-1, "AIR module")
  :: Array.to_list
       (Array.map
          (fun prt ->
            ( Partition_id.index prt.setup.partition.Partition.id,
              prt.setup.partition.Partition.name ))
          t.partitions)

let flow_entries t =
  match t.cfg.causal with
  | None -> []
  | Some c -> Air_obs.Causal.entries c

let export_meta t =
  (match t.cfg.recorder with
  | None -> []
  | Some r -> [ ("dropped_spans", Air_obs.Span.dropped r) ])
  @
  match t.cfg.causal with
  | None -> []
  | Some c -> [ ("dropped_flow_records", Air_obs.Causal.dropped c) ]

type chrome_parts = {
  chrome_tracks : (int * string) list;
  chrome_spans : Air_obs.Span.span list;
  chrome_events : (int * string * string) list;
  chrome_flows : Air_obs.Causal.entry list;
}

let chrome_parts ?(shift = 0) ?(prefix = "") t =
  let spans =
    match t.cfg.recorder with
    | None -> []
    | Some r ->
      Air_obs.Span.spans r @ Air_obs.Span.open_spans r ~now:(now t)
  in
  { chrome_tracks =
      List.map
        (fun (track, name) -> (track + shift, prefix ^ name))
        (track_names t);
    chrome_spans =
      List.map
        (fun (s : Air_obs.Span.span) ->
          { s with Air_obs.Span.track = s.Air_obs.Span.track + shift })
        spans;
    chrome_events =
      List.map
        (fun (time, ev) ->
          (time, prefix ^ Event.label ev, Format.asprintf "%a" Event.pp ev))
        (Trace.to_list t.trace);
    chrome_flows =
      List.map
        (fun (e : Air_obs.Causal.entry) ->
          { e with Air_obs.Causal.track = e.Air_obs.Causal.track + shift })
        (flow_entries t) }

let chrome_trace t =
  let p = chrome_parts t in
  Air_obs.Trace_export.to_chrome ~tracks:p.chrome_tracks
    ~events:p.chrome_events ~flows:p.chrome_flows ~meta:(export_meta t)
    p.chrome_spans

let partition_count t = Array.length t.partitions

let partition_ids t =
  Array.to_list
    (Array.map (fun prt -> prt.setup.partition.Partition.id) t.partitions)

let partition_mode t pid = (prt_of t pid).mode
let kernel_of t pid = (prt_of t pid).kernel
let pal_of t pid = (prt_of t pid).pal
let intra_of t pid = (prt_of t pid).intra

let region_of t pid section =
  match Protection.map_of t.protection pid with
  | None -> None
  | Some map ->
    List.find_opt
      (fun (r : Memory.region) -> Memory.section_equal r.section section)
      map.Memory.regions

let regions_of t pid =
  match Protection.map_of t.protection pid with
  | None -> []
  | Some map -> map.Memory.regions

let violations t =
  List.rev
    (Trace.fold
       (fun acc time ev ->
         match ev with
         | Event.Deadline_violation { process; deadline } ->
           (time, process, deadline) :: acc
         | _ -> acc)
       [] t.trace)

let activity t =
  List.rev
    (Trace.fold
       (fun acc time ev ->
         match ev with
         | Event.Context_switch { to_; _ } -> (time, to_) :: acc
         | _ -> acc)
       [] t.trace)

(* --- Operator interventions -------------------------------------------- *)

let with_process t pid ~name f =
  let prt = prt_of t pid in
  match Kernel.find_by_name prt.kernel name with
  | None -> Error (Printf.sprintf "no process named %S" name)
  | Some q -> f prt q

let start_process t pid ~name =
  with_process t pid ~name (fun prt q ->
      match start_process_internal t prt q ~delay:Time.zero with
      | Ok () -> Ok ()
      | Error e -> Error (Format.asprintf "%a" Kernel.pp_op_error e))

let stop_process t pid ~name =
  with_process t pid ~name (fun prt q ->
      match Kernel.stop prt.kernel q with
      | Ok () -> Ok ()
      | Error e -> Error (Format.asprintf "%a" Kernel.pp_op_error e))

let request_schedule t id =
  match Pmk_mc.request_schedule_switch t.lane id with
  | Ok () ->
    emit t (Event.Schedule_switch_request { by = None; target = id });
    Ok ()
  | Error Pmk.Same_schedule ->
    emit t (Event.Schedule_switch_request { by = None; target = id });
    Ok ()
  | Error (Pmk.No_such_schedule i) ->
    Error (Printf.sprintf "no schedule with index %d" i)

let restart_partition t pid mode =
  let prt = prt_of t pid in
  match mode with
  | Partition.Normal -> Error "cannot force a partition directly to normal"
  | Partition.Idle ->
    shutdown_partition t prt;
    Ok ()
  | Partition.Cold_start | Partition.Warm_start ->
    begin_restart t prt mode;
    Ok ()

let deliver_remote ?cid t ~port msg =
  match Router.inject ?cid t.router ~port ~now:(now t) msg with
  | Router.Inject_bad_port ->
    Error
      (Printf.sprintf "no destination port %S (or bad message size)"
         (Router.port_name t.router port))
  | Router.Inject_overflow ->
    emit t (Event.Port_overflow { port = Router.port_name t.router port });
    Ok ()
  | Router.Injected ->
    emit t
      (Event.Port_send
         { port = Router.port_name t.router port; bytes = Bytes.length msg });
    notify_port_delivery t port;
    Ok ()

let drain_remote t ~port = Router.drain t.router ~port ~now:(now t)
let remote_pending t ~port = Router.pending t.router ~port

let note_flow_perturb t ~what cid =
  match t.cfg.causal with
  | None -> ()
  | Some c -> Air_obs.Causal.perturb c ~now:(now t) ~what cid

let inject_module_error t code ~detail = report_module_error t code ~detail

(* --- Fault injection ---------------------------------------------------- *)

let note_fault t ~label = emit t (Event.Fault_injected { label })

let inject_memory_access t pid ~access ~address =
  let prt = prt_of t pid in
  let result, cost =
    Protection.access_costed t.protection ~partition:pid
      ~level:Memory.Application ~access address
  in
  (match t.contention with
  | None -> ()
  | Some c ->
    (* Attribute the injected touch to the lane the partition currently
       occupies (lane 0 if it is not holding a core). *)
    Contention.set_lane c
      (match Pmk_mc.active_lane_of t.lane pid with Some l -> l | None -> 0);
    charge_shared_access t prt ~cost);
  let granted = match result with Ok () -> true | Error _ -> false in
  emit t (Event.Memory_access { partition = pid; address; granted });
  if not granted then
    report_partition_error t prt Error.Memory_violation
      ~detail:(Printf.sprintf "address 0x%x (injected)" address);
  granted

(* A bandwidth-hog fault: the partition saturates its lane's memory
   bandwidth. Modeled as a bulk demand injection of
   [budget * permille / 1000] units charged to the offender's account and
   lane at the injection tick. Returns the charged demand ([None] when no
   contention model is configured — the fault cannot exist without the
   model). A hog that pushes its account past its budget escalates
   through the HM as temporal-degradation via the ordinary charge path;
   victims co-running on other lanes degrade only through the modeled
   slowdown curve, which the campaign oracle checks from telemetry. *)
let inject_bandwidth_hog t pid ~permille =
  match t.contention with
  | None -> None
  | Some c ->
    if permille <= 0 then Some 0
    else begin
      let prt = prt_of t pid in
      let pi = Partition_id.index pid in
      let cost = Int.max 1 (Contention.budget c pi * permille / 1000) in
      Contention.set_lane c
        (match Pmk_mc.active_lane_of t.lane pid with Some l -> l | None -> 0);
      charge_shared_access t prt ~cost;
      Some cost
    end

let inject_clock_jitter t pid ~ticks =
  if ticks > 0 then begin
    let prt = prt_of t pid in
    prt.jitter_left <- prt.jitter_left + ticks
  end

let configuration t = t.cfg
