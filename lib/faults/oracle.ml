open Air_sim
open Air_model
open Air_model.Ident

(* Output continuity: an untargeted partition must still produce 900‰ of
   its baseline output lines, less a grace of 2 lines that absorbs
   MTF-boundary truncation (a campaign's horizon can cut a frame the
   baseline completed). *)
let output_tolerance_permille = 900
let output_slack = 2

type finding = { check : string; detail : string }
type verdict = { findings : finding list; checks : int }

let passed v = v.findings = []

let pp_finding ppf f = Format.fprintf ppf "[%s] %s" f.check f.detail

(* --- Replay: the temporal and IPC invariants ------------------------------ *)

(* A destination port as the trace shows it. A queuing port ([depth] > 0)
   [held]s the messages delivered to it less those received, lost or
   delayed; [credited] is the instant of its last delivery, which a
   same-instant overflow voids. A sampling port ([depth] 0) records
   whether it was ever [written]. *)
type dest = {
  depth : int;
  mutable held : int;
  mutable credited : Time.t;
  mutable written : bool;
}

(* The scheduling state rebuilt from the events (schedule in force, its
   last switch, active partition and the start of its current segment),
   the change actions armed by the last switch (partition index) and
   awaiting their event at first dispatch (partition index → dispatch
   instant), the deadline misses no HM error has answered yet (newest
   first), the ports, and the fault outcomes not yet paired with their
   [Fault_injected] event. *)
type replay = {
  table : Schedule.t array;
  mutable cur : int;
  mutable last_switch : Time.t;
  mutable active : Partition_id.t option;
  mutable seg_start : Time.t;
  armed : (int, unit) Hashtbl.t;
  expecting : (int, Time.t) Hashtbl.t;
  mutable misses : (Time.t * Process_id.t) list;
  dests : (Port_name.t, dest) Hashtbl.t;
  fanout : (Port_name.t, dest list) Hashtbl.t;
  mutable faults : Engine.outcome list;
}

let replay_start (cfg : Air.System.config) outcomes =
  let schedules = cfg.Air.System.schedules in
  if schedules = [] then invalid_arg "Oracle.replay: no schedules";
  let n = List.length schedules in
  let table = Array.make n (List.hd schedules) in
  List.iter
    (fun (s : Schedule.t) ->
      let i = Schedule_id.index s.id in
      if i >= n then
        invalid_arg "Oracle.replay: schedule identifiers must be dense";
      table.(i) <- s)
    schedules;
  let cur =
    match cfg.Air.System.initial_schedule with
    | None -> 0
    | Some id ->
      let i = Schedule_id.index id in
      if i >= n then invalid_arg "Oracle.replay: initial schedule out of range";
      i
  in
  let network = cfg.Air.System.network in
  let dests = Hashtbl.create 8 and fanout = Hashtbl.create 8 in
  List.iter
    (fun (c : Air_ipc.Port.config) ->
      let dest depth =
        Hashtbl.replace dests c.name
          { depth; held = 0; credited = -1; written = false }
      in
      match (c.direction, c.kind) with
      | Air_ipc.Port.Destination, Air_ipc.Port.Queuing { depth } -> dest depth
      | Air_ipc.Port.Destination, Air_ipc.Port.Sampling _ -> dest 0
      | Air_ipc.Port.Source, _ -> ())
    network.Air_ipc.Port.ports;
  List.iter
    (fun (ch : Air_ipc.Port.channel) ->
      Hashtbl.replace fanout ch.source
        (List.filter_map (Hashtbl.find_opt dests) ch.destinations))
    network.Air_ipc.Port.channels;
  { table;
    cur;
    last_switch = Time.zero;
    active = None;
    seg_start = Time.zero;
    armed = Hashtbl.create 4;
    expecting = Hashtbl.create 4;
    misses = [];
    dests;
    fanout;
    faults = outcomes }

(* Window conformance over [seg_start, e): the active partition must own
   the window covering every tick. The scan jumps from window to window,
   one lookup per window crossed, and reports the first tick a per-tick
   scan would: one finding per segment keeps the output proportional to
   the number of distinct excursions. *)
let conform ~fail ~count r e =
  match r.active with
  | Some p when r.seg_start < e ->
    count ();
    let sched = r.table.(r.cur) in
    let rec scan tau =
      if tau < e then begin
        let off = (tau - r.last_switch) mod sched.Schedule.mtf in
        match Schedule.window_at sched off with
        | Some w when Partition_id.equal w.partition p ->
          scan (tau + Int.min (w.offset + w.duration) sched.mtf - off)
        | owner ->
          fail "window-conformance"
            (Format.asprintf
               "[%a] %a ran outside its window (scheduling table grants %a)"
               Time.pp tau Partition_id.pp p
               (fun ppf -> function
                 | None -> Format.pp_print_string ppf "nobody"
                 | Some (w : Schedule.window) ->
                   Partition_id.pp ppf w.partition)
               owner)
      end
    in
    scan r.seg_start
  | Some _ | None -> ()

(* Dispatches awaiting their change action since before [t] completed
   without it. *)
let flush_expecting ~fail r t =
  let stale =
    Hashtbl.fold
      (fun p when_ acc -> if when_ < t then (p, when_) :: acc else acc)
      r.expecting []
  in
  List.iter
    (fun (p, when_) ->
      Hashtbl.remove r.expecting p;
      fail "change-action"
        (Format.asprintf
           "[%a] %a dispatched without its armed schedule-change action"
           Time.pp when_ Partition_id.pp (Partition_id.make p)))
    stale

let deliver time d =
  if d.depth > 0 then begin
    d.held <- d.held + 1;
    d.credited <- time
  end
  else d.written <- true

(* An applied port fault moves a queuing destination's count as the
   router did: a duplicate adds a message unless the queue is full (the
   router then counts an overflow and records no event), a loss or a
   delay takes the head away (a delayed message comes back through the
   inject path, as a [Port_send] naming the port). *)
let perturb r (o : Engine.outcome) =
  match (o.Engine.applied, o.Engine.fault) with
  | Engine.Applied, Fault.Port_fault { port; fault } -> (
    match Hashtbl.find_opt r.dests port with
    | Some d when d.depth > 0 -> (
      match fault with
      | Fault.Msg_duplicate -> if d.held < d.depth then d.held <- d.held + 1
      | Fault.Msg_loss | Fault.Msg_delay _ -> d.held <- d.held - 1
      | Fault.Msg_corrupt _ | Fault.Msg_reorder -> ())
    | Some _ | None -> ())
  | _ -> ()

let replay_event ~fail ~count r time (ev : Event.t) =
  if Hashtbl.length r.expecting > 0 then flush_expecting ~fail r time;
  match ev with
  | Event.Context_switch { from = _; to_ } -> (
    conform ~fail ~count r time;
    r.active <- to_;
    r.seg_start <- time;
    match to_ with
    | Some p when Hashtbl.mem r.armed (Partition_id.index p) ->
      Hashtbl.remove r.armed (Partition_id.index p);
      Hashtbl.replace r.expecting (Partition_id.index p) time
    | Some _ | None -> ())
  | Event.Schedule_switch { from; to_ } ->
    conform ~fail ~count r time;
    count ();
    let offset = (time - r.last_switch) mod r.table.(r.cur).Schedule.mtf in
    if offset <> 0 then
      fail "mtf-boundary"
        (Format.asprintf
           "[%a] schedule switch %a → %a %a ticks into the major time frame"
           Time.pp time Schedule_id.pp from Schedule_id.pp to_ Time.pp offset);
    let i = Schedule_id.index to_ in
    if i < Array.length r.table then begin
      r.cur <- i;
      (* Arm the new schedule's change actions, as Algorithm 1 does. *)
      let s = r.table.(i) in
      List.iter
        (fun pid ->
          match Schedule.change_action_for s pid with
          | Schedule.No_action -> ()
          | Schedule.Warm_restart_partition | Schedule.Cold_restart_partition
            ->
            Hashtbl.replace r.armed (Partition_id.index pid) ())
        (Schedule.partitions s)
    end;
    r.last_switch <- time;
    r.seg_start <- time
  | Event.Change_action { partition; action = _ } -> (
    count ();
    let pi = Partition_id.index partition in
    match Hashtbl.find_opt r.expecting pi with
    | Some when_ when when_ = time -> Hashtbl.remove r.expecting pi
    | Some _ | None ->
      fail "change-action"
        (Format.asprintf "[%a] change action delivered to %a with none armed"
           Time.pp time Partition_id.pp partition))
  | Event.Deadline_violation { process; deadline = _ } ->
    count ();
    r.misses <- (time, process) :: r.misses
  | Event.Hm_error { code = Error.Deadline_missed; process = Some p; _ } ->
    let rec remove_first = function
      | [] -> []
      | (_, q) :: rest when Process_id.equal q p -> rest
      | entry :: rest -> entry :: remove_first rest
    in
    r.misses <- remove_first r.misses
  | Event.Port_send { port; bytes = _ } ->
    (match Hashtbl.find_opt r.fanout port with
    | Some ds -> List.iter (deliver time) ds
    | None -> ());
    (* The inject path names the destination port itself. *)
    (match Hashtbl.find_opt r.dests port with
    | Some d -> deliver time d
    | None -> ())
  | Event.Port_overflow { port } -> (
    (* Void the same-instant credit of the send that overflowed; an
       inject-path overflow credited nothing. *)
    match Hashtbl.find_opt r.dests port with
    | Some d when d.credited = time ->
      d.held <- d.held - 1;
      d.credited <- -1
    | Some _ | None -> ())
  | Event.Port_receive { port; bytes = _ } -> (
    match Hashtbl.find_opt r.dests port with
    | Some d when d.depth > 0 ->
      count ();
      if d.held > 0 then d.held <- d.held - 1
      else begin
        fail "ipc-conservation"
          (Format.asprintf
             "[%a] queuing port %s handed out a message never delivered to it"
             Time.pp time port);
        d.held <- 0
      end
    | Some d ->
      count ();
      if not d.written then
        fail "ipc-conservation"
          (Format.asprintf "[%a] sampling port %s read before any write"
             Time.pp time port)
    | None -> ())
  | Event.Fault_injected { label } -> (
    (* Every injection records its label before it strikes; redeliveries
       ("redeliver PORT") pair with no outcome. *)
    match r.faults with
    | o :: rest when String.equal label (Fault.label o.Engine.fault) ->
      r.faults <- rest;
      perturb r o
    | _ -> ())
  | _ -> ()

(* Close the last segment at [until] and report what never happened. *)
let replay_close ~fail ~count r ~until =
  conform ~fail ~count r until;
  flush_expecting ~fail r (until + 1);
  List.iter
    (fun (time, process) ->
      fail "deadline-supervision"
        (Format.asprintf "[%a] deadline miss of %a never reached the health \
                          monitor"
           Time.pp time Process_id.pp process))
    (List.rev r.misses)

(* The finding that stands in for judging [trace] when it is bounded and
   dropped its head: whatever rebuilds a run from tick 0 would blame the
   dropped events' effects on what is left. *)
let headless ~what ~needs trace =
  match Trace.total trace - Trace.length trace with
  | 0 -> None
  | n ->
    Some
      { check = "replay";
        detail =
          Printf.sprintf "%s trace dropped %d events; %s from tick 0" what n
            needs }

let replay cfg ~until ~outcomes trace =
  let needs = "the replay needs the full trace" in
  match headless ~what:"bounded" ~needs trace with
  | Some f -> [ f ]
  | None ->
    let findings = ref [] in
    let fail check detail = findings := { check; detail } :: !findings in
    let r = replay_start cfg outcomes in
    Trace.iter (replay_event ~fail ~count:ignore r) trace;
    replay_close ~fail ~count:ignore r ~until;
    List.rev !findings

(* --- Containment ---------------------------------------------------------- *)

(* Blame set of the campaign: which partitions a fault targeted, and
   whether any fault legitimizes module-wide effects. *)
let blame_of run network =
  let port_owner port =
    List.find_opt
      (fun (c : Air_ipc.Port.config) -> String.equal c.Air_ipc.Port.name port)
      network.Air_ipc.Port.ports
    |> Option.map (fun (c : Air_ipc.Port.config) ->
           Partition_id.index c.Air_ipc.Port.partition)
  in
  let scoped = Hashtbl.create 8 in
  let module_scope = ref false in
  List.iter
    (fun (inj : Campaign.injection) ->
      match Fault.scope inj.Campaign.fault with
      | Fault.Scope_partition p -> Hashtbl.replace scoped p ()
      | Fault.Scope_port port -> (
        match port_owner port with
        | Some p -> Hashtbl.replace scoped p ()
        | None -> ())
      | Fault.Scope_module -> module_scope := true
      | Fault.Scope_benign -> ())
    run.Engine.plan;
  (scoped, !module_scope)

let count_output counts = function
  | Event.Application_output { partition; _ } ->
    let p = Partition_id.index partition in
    Hashtbl.replace counts p
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  | _ -> ()

(* Does [ev] answer an HM error of [level]? *)
let answers (level : Error.level) (ev : Event.t) =
  match (level, ev) with
  | Error.Process_level, Event.Hm_process_action _
  | Error.Partition_level, Event.Hm_partition_action _
  | Error.Module_level, Event.Hm_module_action _ ->
    true
  | _ -> false

(* The HM tables replayed over the trace: [action], the first event of
   the error's level at its instant, must be exactly what a fresh table
   lookup resolves to — including the stateful [Log_then] thresholds,
   which the replayed [Hm.t] counts identically because it sees the same
   errors in the same order. *)
let match_action ~fail hm ~time ~code ~partition ~process (action : Event.t) =
  let mismatch pp resolved applied =
    fail "action-matching"
      (Format.asprintf "at %a: %a error resolved to %a but the trace applied %a"
         Time.pp time Error.pp_code code pp resolved pp applied)
  in
  let misblamed pp applied blamed =
    fail "action-matching"
      (Format.asprintf "at %a: action applied to %a but the error blamed %a"
         Time.pp time pp applied pp blamed)
  in
  match (action, partition, process) with
  | Event.Hm_process_action { process = pr; action }, Some pid, Some prid ->
    let resolved =
      Air.Hm.resolve_process_error hm ~partition:pid
        ~process:(Process_id.index prid) ~code
    in
    if not (Process_id.equal pr prid) then misblamed Process_id.pp pr prid
    else if resolved <> action then
      mismatch Error.pp_process_action resolved action
  | Event.Hm_partition_action { partition = pa; action }, Some pid, _ ->
    let resolved = Air.Hm.resolve_partition_error hm ~partition:pid ~code in
    if not (Partition_id.equal pa pid) then misblamed Partition_id.pp pa pid
    else if resolved <> action then
      mismatch Error.pp_partition_action resolved action
  | Event.Hm_module_action { action }, _, _ ->
    let resolved = Air.Hm.resolve_module_error hm ~code in
    if resolved <> action then mismatch Error.pp_module_action resolved action
  | _ ->
    fail "action-matching"
      (Format.asprintf "at %a: %a error carries no blamed partition/process"
         Time.pp time Error.pp_code code)

(* A campaign whose target and baseline traces are whole. *)
let judge (run : Engine.run) sys base =
  let cfg = Air.System.configuration sys in
  let trace = Air.System.trace sys in
  let findings = ref [] in
  let checks = ref 0 in
  let fail check detail = findings := { check; detail } :: !findings in
  let count () = incr checks in
  let scoped, module_scope = blame_of run cfg.Air.System.network in
  let excused p = module_scope || Hashtbl.mem scoped p in
  let replay = replay_start cfg run.Engine.outcomes in
  let hm = Air.Hm.create ~tables:cfg.Air.System.hm_tables () in
  (* The last HM error no action has answered yet; one left unanswered
     past its instant is a log-only trap (no resolution happened), skipped
     on both sides. *)
  let incident = ref None in
  let got = Hashtbl.create 8 in
  (* One walk over the campaign trace feeds every invariant that reads
     events: deadline and HM containment, output counting, action
     matching and the replay. *)
  Trace.iter
    (fun time ev ->
      (match ev with
      | Event.Deadline_violation { process; _ } ->
        count ();
        let p = Partition_id.index (Process_id.partition process) in
        if not (excused p) then
          fail "deadline-containment"
            (Format.asprintf
               "deadline miss in untargeted partition %d at %a" p Time.pp
               time)
      | Event.Hm_error { level; code; partition; process; _ } -> (
        count ();
        incident := Some (time, level, code, partition, process);
        match level with
        | Error.Module_level ->
          if not module_scope then
            fail "hm-containment"
              (Format.asprintf
                 "module-level %a at %a without any module-scoped fault"
                 Error.pp_code code Time.pp time)
        | Error.Process_level | Error.Partition_level -> (
          match partition with
          | Some pid ->
            let p = Partition_id.index pid in
            if not (excused p) then
              fail "hm-containment"
                (Format.asprintf
                   "%a in untargeted partition %d at %a" Error.pp_code code p
                   Time.pp time)
          | None ->
            fail "hm-containment"
              (Format.asprintf
                 "%a error without a blamed partition at %a" Error.pp_code
                 code Time.pp time)))
      | Event.Hm_process_action _ | Event.Hm_partition_action _
      | Event.Hm_module_action _ -> (
        match !incident with
        | Some (at, level, code, partition, process)
          when at = time && answers level ev ->
          incident := None;
          count ();
          match_action ~fail hm ~time ~code ~partition ~process ev
        | Some _ | None -> ())
      | Event.Application_output _ -> count_output got ev
      | _ -> ());
      replay_event ~fail ~count replay time ev)
    trace;
  replay_close ~fail ~count replay ~until:(Air.System.now sys + 1);
  (* Mode containment against the baseline. *)
  if not module_scope then
    List.iter
      (fun pid ->
        let p = Partition_id.index pid in
        if not (Hashtbl.mem scoped p) then begin
          count ();
          let got = Air.System.partition_mode sys pid in
          let want = Air.System.partition_mode base pid in
          if not (Partition.mode_equal got want) then
            fail "mode-containment"
              (Format.asprintf
                 "untargeted partition %d ended %a (baseline %a)" p
                 Partition.pp_mode got Partition.pp_mode want)
        end)
      (Air.System.partition_ids sys);
  (* Module survival. *)
  count ();
  (match (Air.System.halted sys, Air.System.halted base) with
  | Some reason, None when not module_scope ->
    fail "halt-containment"
      (Printf.sprintf "module halted (%s) without a module-scoped fault"
         reason)
  | _ -> ());
  (* Output continuity for untargeted partitions. *)
  if not module_scope then begin
    let want = Hashtbl.create 8 in
    Trace.iter (fun _ ev -> count_output want ev) (Air.System.trace base);
    List.iter
      (fun pid ->
        let p = Partition_id.index pid in
        if not (Hashtbl.mem scoped p) then begin
          count ();
          let g = Option.value ~default:0 (Hashtbl.find_opt got p) in
          let w = Option.value ~default:0 (Hashtbl.find_opt want p) in
          let need =
            (w * output_tolerance_permille / 1000) - output_slack
          in
          if g < need then
            fail "output-continuity"
              (Printf.sprintf
                 "untargeted partition %d produced %d output lines \
                  (baseline %d, required >= %d)"
                 p g w need)
        end)
      (Air.System.partition_ids sys)
  end;
  (* Interference-curve containment: under a bandwidth-hog campaign,
     victims on other lanes may degrade only within the modeled slowdown
     curve — per telemetry frame, a partition's throttled ticks are
     bounded by [max_stall_per_access * its own charged accesses] (each
     charge accrues at most the curve's largest step). *)
  let hogged =
    List.exists
      (fun (inj : Campaign.injection) ->
        match inj.Campaign.fault with
        | Fault.Bandwidth_hog _ -> true
        | _ -> false)
      run.Engine.plan
  in
  (match (hogged, Air.System.contention sys) with
  | true, Some c ->
    let bound = Air_spatial.Contention.max_stall_per_access c in
    List.iter
      (fun (f : Air_obs.Telemetry.frame) ->
        Array.iter
          (fun (pf : Air_obs.Telemetry.partition_frame) ->
            count ();
            if pf.Air_obs.Telemetry.pf_throttled
               > bound * pf.Air_obs.Telemetry.pf_mem_demand
            then
              fail "interference-curve"
                (Printf.sprintf
                   "partition %d frame %d: %d throttled ticks exceed the \
                    curve bound %d (= %d per access x %d accesses)"
                   pf.Air_obs.Telemetry.pf_partition f.Air_obs.Telemetry.f_index
                   pf.Air_obs.Telemetry.pf_throttled
                   (bound * pf.Air_obs.Telemetry.pf_mem_demand)
                   bound pf.Air_obs.Telemetry.pf_mem_demand))
          f.Air_obs.Telemetry.f_partitions)
      (Air.System.telemetry_frames sys)
  | (true | false), _ -> ());
  (* Guaranteed detection. *)
  List.iter
    (fun (o : Engine.outcome) ->
      match (o.Engine.applied, Fault.guaranteed_detection o.Engine.fault) with
      | Engine.Applied, Some code ->
        count ();
        if o.Engine.detected_at = None then
          fail "detection"
            (Format.asprintf
               "%s (at %a) was applied but no %a reached the health monitor"
               (Fault.label o.Engine.fault)
               Time.pp o.Engine.at Error.pp_code code)
      | _ -> ())
    run.Engine.outcomes;
  { findings = List.rev !findings; checks = !checks }

(* [judge] reads the campaign and baseline traces from tick 0, and the
   engine matches no detection on a trace that dropped its head: a
   campaign with such a trace is judged on nothing but that, in one
   finding. *)
let check (run : Engine.run) =
  let sys = Engine.system run and base = Engine.baseline_system run in
  let headless (what, s) =
    headless ~what ~needs:"a campaign is judged on full traces"
      (Air.System.trace s)
  in
  match List.find_map headless [ ("campaign", sys); ("baseline", base) ] with
  | Some f -> { findings = [ f ]; checks = 0 }
  | None -> judge run sys base
