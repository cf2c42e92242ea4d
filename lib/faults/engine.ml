open Air_sim
open Air_model
open Air_model.Ident

type target =
  | Module of Air.System.t
  | Driver of { cluster : Air.Cluster.t; advance : int -> unit }

let group ~advance cluster = Driver { cluster; advance }
let cluster c = group ~advance:(fun ticks -> Air.Cluster.run c ~ticks) c

type applied = Applied | Absorbed of string | Failed of string

type outcome = {
  fault : Fault.t;
  at : Time.t;
  applied : applied;
  detected_at : Time.t option;
  latency : int option;
  action : string option;
  flows : string list;
      (* Correlation ids of the stamped in-flight messages this fault
         touched (rendered with [Causal.to_string]); [] when the target has
         no flow tracker or the fault struck nothing stamped. *)
}

type run = {
  spec : Campaign.spec;
  mtf : int;
  plan : Campaign.injection list;
  target : target;
  baseline : target;
  outcomes : outcome list;
  fingerprint : string;
}

let observed = function
  | Module s -> s
  | Driver d -> (Air.Cluster.systems d.cluster).(0)

(* A module advances through the skip-ahead executive under turbo, per
   tick otherwise; the injection points bound every span, so a campaign's
   faults land on exactly the planned ticks either way. A group paces
   itself (the windowed fleet barriers only where it must). *)
let advancer ~turbo = function
  | Module s ->
    let mode = if turbo then Air_exec.Engine.Adaptive else Per_tick in
    let engine = Air_exec.Engine.create ~mode s in
    fun ticks -> Air_exec.Engine.advance engine ~ticks
  | Driver d -> d.advance

let system run = observed run.target
let baseline_system run = observed run.baseline

let mtf_of sys =
  let pmk = Air.System.pmk sys in
  (Air.Pmk.schedule pmk (Air.Pmk.current_schedule pmk)).Schedule.mtf

(* --- Injection ---------------------------------------------------------- *)

(* Work queue: planned injections plus delayed-message redeliveries that
   materialize during the run, ordered by (tick, insertion sequence). *)
type act =
  | Inject of Fault.t
  | Redeliver of {
      port : string;
      payload : bytes;
      cid : Air_obs.Causal.id;
          (* The stolen message's correlation id, restored at re-injection
             so the eventual receive still closes the original flow. *)
    }
type pending = { p_at : int; p_seq : int; p_act : act }

let pending_cmp a b =
  match Stdlib.compare a.p_at b.p_at with
  | 0 -> Stdlib.compare a.p_seq b.p_seq
  | c -> c

let bus_fault_of_comm (cf : Fault.comm_fault) =
  match cf with
  | Fault.Msg_loss -> Air.Cluster.Bus_drop
  | Fault.Msg_duplicate -> Air.Cluster.Bus_duplicate
  | Fault.Msg_delay { ticks } -> Air.Cluster.Bus_delay (Stdlib.max 1 ticks)
  | Fault.Msg_corrupt { byte } -> Air.Cluster.Bus_corrupt { byte }
  | Fault.Msg_reorder -> Air.Cluster.Bus_reorder

let of_result = function Ok () -> Applied | Error e -> Failed e

let of_perturb = function
  | Air_ipc.Router.Perturbed -> Applied
  | Air_ipc.Router.No_message -> Absorbed "no message in transit"
  | Air_ipc.Router.Perturb_bad_port -> Failed "bad port for perturbation"

(* Apply one fault; returns the status plus the correlation ids of the
   stamped flows it touched. [schedule_redelivery] receives delayed
   payloads (with their ids, restored at re-injection). *)
let apply_fault target ~schedule_redelivery (fault : Fault.t) =
  let sys = observed target in
  Air.System.note_fault sys ~label:(Fault.label fault);
  let no_flow applied = (applied, []) in
  match fault with
  | Fault.Runaway_start { partition; process } ->
    no_flow
      (of_result
         (Air.System.start_process sys (Partition_id.make partition)
            ~name:process))
  | Fault.Process_stop { partition; process } ->
    no_flow
      (of_result
         (Air.System.stop_process sys (Partition_id.make partition)
            ~name:process))
  | Fault.Partition_restart { partition; mode } ->
    no_flow
      (of_result
         (Air.System.restart_partition sys (Partition_id.make partition) mode))
  | Fault.Schedule_request { schedule } ->
    no_flow
      (of_result (Air.System.request_schedule sys (Schedule_id.make schedule)))
  | Fault.Clock_jitter { partition; ticks } ->
    if ticks <= 0 then no_flow (Failed "clock jitter needs a positive tick count")
    else begin
      Air.System.inject_clock_jitter sys (Partition_id.make partition) ~ticks;
      no_flow Applied
    end
  | Fault.Wild_access { partition; section; offset; write } -> (
    let pid = Partition_id.make partition in
    match Air.System.region_of sys pid section with
    | None -> no_flow (Failed "partition has no region for that section")
    | Some r ->
      (* Past the end of the named region — and past the partition's whole
         footprint if another of its regions sits right behind it, so the
         access is genuinely out-of-partition. *)
      let floor =
        List.fold_left
          (fun m (r : Air_spatial.Memory.region) ->
            Stdlib.max m (Air_spatial.Memory.region_end r))
          (Air_spatial.Memory.region_end r)
          (Air.System.regions_of sys pid)
      in
      let address = floor + Stdlib.max 0 offset in
      let access = if write then Air_spatial.Mmu.Write else Air_spatial.Mmu.Read in
      if Air.System.inject_memory_access sys pid ~access ~address then
        no_flow (Absorbed "access unexpectedly granted")
      else no_flow Applied)
  | Fault.Bit_flip { partition; section; bit; write } -> (
    let pid = Partition_id.make partition in
    match Air.System.region_of sys pid section with
    | None -> no_flow (Failed "partition has no region for that section")
    | Some r ->
      (* Flip one address bit in a legitimate in-region address: low bits
         stay inside the region (contained by construction), high bits
         escape it and must be caught by the MMU walk. *)
      let address = r.Air_spatial.Memory.base lxor (1 lsl (((bit mod 30) + 30) mod 30)) in
      let access = if write then Air_spatial.Mmu.Write else Air_spatial.Mmu.Read in
      if Air.System.inject_memory_access sys pid ~access ~address then
        no_flow (Absorbed "flipped address stayed in-region")
      else no_flow Applied)
  | Fault.Bandwidth_hog { partition; permille } -> (
    let pid = Partition_id.make partition in
    match Air.System.inject_bandwidth_hog sys pid ~permille with
    | None -> no_flow (Failed "contention model not configured")
    | Some _ ->
      (* Applied iff the burst blew the hog's own window budget (the HM
         escalation the detection matcher then looks for); a sub-budget
         burst is absorbed by the contention accounts. *)
      let blown =
        match Air.System.contention sys with
        | Some c -> Air_spatial.Contention.blown c partition
        | None -> false
      in
      if blown then no_flow Applied
      else no_flow (Absorbed "demand within budget"))
  | Fault.Port_fault { port; fault = cf } -> (
    let router = Air.System.router sys in
    let now = Air.System.now sys in
    (* The router records a [Perturb] entry when the struck message is
       stamped; comparing the tracker's total across the call tells whether
       this fault touched a flow (and [last_perturbed] then names it). *)
    let tracker = Air.System.causal sys in
    let before =
      match tracker with None -> 0 | Some c -> Air_obs.Causal.total c
    in
    let flows_touched () =
      match tracker with
      | Some c when Air_obs.Causal.total c > before ->
        [ Air_obs.Causal.to_string (Air_obs.Causal.last_perturbed c) ]
      | Some _ | None -> []
    in
    let perturbed r = (of_perturb r, flows_touched ()) in
    match cf with
    | Fault.Msg_loss -> perturbed (Air_ipc.Router.drop_head ~now router ~port)
    | Fault.Msg_duplicate ->
      perturbed (Air_ipc.Router.duplicate_head ~now router ~port)
    | Fault.Msg_corrupt { byte } ->
      perturbed (Air_ipc.Router.corrupt_head ~now router ~port ~byte)
    | Fault.Msg_reorder ->
      perturbed (Air_ipc.Router.reorder_head ~now router ~port)
    | Fault.Msg_delay { ticks } -> (
      match Air_ipc.Router.steal_head ~now router ~port with
      | None -> no_flow (Absorbed "no message in transit")
      | Some (payload, cid) ->
        schedule_redelivery ~delay:(Stdlib.max 1 ticks) ~port ~cid payload;
        (Applied, flows_touched ())))
  | Fault.Link_fault { fault = cf } -> (
    match target with
    | Module _ -> no_flow (Failed "link fault requires a cluster target")
    | Driver { cluster = c; _ } ->
      if Air.Cluster.inject_bus_fault c (bus_fault_of_comm cf) then
        ( Applied,
          List.map Air_obs.Causal.to_string (Air.Cluster.last_perturbed c) )
      else no_flow (Absorbed "no transfer in flight"))
  | Fault.Module_error { code } ->
    Air.System.inject_module_error sys code
      ~detail:(Printf.sprintf "injected (%s)" (Fault.label fault));
    no_flow Applied

(* --- Detection matching ------------------------------------------------- *)

(* The HM error code an applied fault is expected to surface as, with the
   level at which to look for it. *)
let expected_detection (fault : Fault.t) =
  match fault with
  | Fault.Wild_access { partition; _ } | Fault.Bit_flip { partition; _ } ->
    Some (Error.Memory_violation, `Partition partition)
  | Fault.Runaway_start { partition; _ } ->
    Some (Error.Deadline_missed, `Partition partition)
  | Fault.Clock_jitter { partition; _ } ->
    Some (Error.Deadline_missed, `Partition partition)
  | Fault.Bandwidth_hog { partition; _ } ->
    Some (Error.Temporal_degradation, `Partition partition)
  | Fault.Module_error { code } -> Some (code, `Module)
  | Fault.Process_stop _ | Fault.Partition_restart _ | Fault.Schedule_request _
  | Fault.Port_fault _ | Fault.Link_fault _ ->
    None

(* Match each (applied) injection to the first not-yet-consumed HM error of
   the expected code in the right blame scope, at or after the injection
   instant; then render the action event that answered it. *)
let match_detections sys working =
  let events = Array.of_list (Trace.to_list (Air.System.trace sys)) in
  let consumed = Array.make (Array.length events) false in
  let find_action ~from ~level =
    let rec go i =
      if i >= Array.length events then None
      else begin
        let _, ev = events.(i) in
        match (level, ev) with
        | `Process, Event.Hm_process_action { action; _ } ->
          Some (Format.asprintf "%a" Error.pp_process_action action)
        | `Partition, Event.Hm_partition_action { action; _ } ->
          Some (Format.asprintf "%a" Error.pp_partition_action action)
        | `Module, Event.Hm_module_action { action } ->
          Some (Format.asprintf "%a" Error.pp_module_action action)
        | _, Event.Hm_error _ -> None (* next incident: stop looking *)
        | _ -> go (i + 1)
      end
    in
    go (from + 1)
  in
  List.map
    (fun (fault, at, applied, flows, match_from) ->
      let detected =
        match (applied, expected_detection fault) with
        | (Absorbed _ | Failed _), _ | _, None -> None
        | Applied, Some (code, where) ->
          let rec scan i =
            if i >= Array.length events then None
            else begin
              let time, ev = events.(i) in
              match ev with
              | Event.Hm_error { code = c; partition; level; _ }
                when (not consumed.(i))
                     && time >= match_from
                     && Error.code_equal c code -> (
                let matches =
                  match where with
                  | `Module ->
                    Error.level_equal level Error.Module_level
                    && partition = None
                  | `Partition p -> (
                    match partition with
                    | Some pid -> Partition_id.index pid = p
                    | None -> false)
                in
                if matches then begin
                  consumed.(i) <- true;
                  let level_key =
                    match level with
                    | Error.Process_level -> `Process
                    | Error.Partition_level -> `Partition
                    | Error.Module_level -> `Module
                  in
                  Some (time, find_action ~from:i ~level:level_key)
                end
                else scan (i + 1))
              | _ -> scan (i + 1)
            end
          in
          scan 0
      in
      match detected with
      | None ->
        { fault; at; applied; detected_at = None; latency = None;
          action = None; flows }
      | Some (time, action) ->
        { fault;
          at;
          applied;
          detected_at = Some time;
          latency = Some (Stdlib.max 0 (time - match_from));
          action;
          flows })
    working

(* --- Fingerprint -------------------------------------------------------- *)

let pp_applied ppf = function
  | Applied -> Format.pp_print_string ppf "applied"
  | Absorbed why -> Format.fprintf ppf "absorbed (%s)" why
  | Failed why -> Format.fprintf ppf "failed (%s)" why

(* The target's whole observation ({!Air.Observe}) — every module and the
   bus of a group, not only the module faults are judged on — and the
   fault outcomes: equal fingerprints mean indistinguishable runs. *)
let fingerprint_of target outcomes =
  let observation =
    match target with
    | Module s -> Air.Observe.system s
    | Driver d -> Air.Observe.cluster d.cluster
  in
  Air.Observe.digest
    (observation
    @ [ ("outcomes", Marshal.to_string outcomes [ Marshal.No_sharing ]) ])

(* --- Execution ---------------------------------------------------------- *)

let run_target ~turbo make spec =
  let target = make () in
  let advance = advancer ~turbo target in
  let sys = observed target in
  let mtf = mtf_of sys in
  let plan = Campaign.plan spec ~mtf in
  let seq = ref 0 in
  let queue =
    ref
      (List.map
         (fun (i : Campaign.injection) ->
           incr seq;
           { p_at = i.at; p_seq = !seq; p_act = Inject i.fault })
         plan)
  in
  let cursor = ref 0 in
  let working = ref [] in
  let schedule_redelivery ~delay ~port ~cid payload =
    incr seq;
    let p =
      { p_at = !cursor + delay;
        p_seq = !seq;
        p_act = Redeliver { port; payload; cid } }
    in
    queue := List.merge pending_cmp !queue [ p ]
  in
  let apply p =
    match p.p_act with
    | Inject fault ->
      let applied, flows = apply_fault target ~schedule_redelivery fault in
      working := (fault, p.p_at, applied, flows, Air.System.now sys) :: !working
    | Redeliver { port; payload; cid } ->
      Air.System.note_fault sys
        ~label:(Printf.sprintf "redeliver %s" port);
      ignore
        (Air.System.deliver_remote ~cid sys
           ~port:(Air_ipc.Router.resolve (Air.System.router sys) port)
           payload)
  in
  let continue = ref true in
  while !continue do
    match !queue with
    | p :: rest when p.p_at <= !cursor ->
      queue := rest;
      apply p
    | _ ->
      if !cursor >= spec.horizon then begin
        (* Redeliveries falling beyond the horizon are lost with it. *)
        queue := [];
        continue := false
      end
      else begin
        let next =
          match !queue with
          | [] -> spec.horizon
          | p :: _ -> Stdlib.min spec.horizon p.p_at
        in
        advance (next - !cursor);
        cursor := next
      end
  done;
  (target, mtf, plan, List.rev !working)

let execute ?(turbo = false) ~make spec =
  let target, mtf, plan, working = run_target ~turbo make spec in
  let sys = observed target in
  let outcomes = match_detections sys working in
  let baseline = make () in
  advancer ~turbo baseline spec.horizon;
  { spec;
    mtf;
    plan;
    target;
    baseline;
    outcomes;
    fingerprint = fingerprint_of target outcomes }

let detection_latencies run =
  let q = Air_obs.Quantile.create () in
  List.iter
    (fun o ->
      match o.latency with
      | Some l -> Air_obs.Quantile.record q l
      | None -> ())
    run.outcomes;
  q

let reproducible ?turbo ~make spec =
  let a = execute ?turbo ~make spec in
  let b = execute ?turbo ~make spec in
  String.equal a.fingerprint b.fingerprint
