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

(* Blame set of the campaign: which partitions a fault targeted, and
   whether any fault legitimizes module-wide effects. *)
let blame_of run =
  let sys = Engine.system run in
  let network = Air.System.network sys in
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

(* Replay the configured HM tables over the trace: every HM error event
   must be answered by exactly the action a fresh table lookup resolves to
   — including the stateful [Log_then] thresholds, which the replayed
   [Hm.t] counts identically because it sees the same errors in the same
   order. An error with no same-instant action event before the next error
   is a log-only trap (no resolution happened), skipped on both sides. *)
let replay_actions ~fail ~count sys events =
  let tables = Air.System.hm_tables sys in
  let hm = Air.Hm.create ~tables () in
  let n = Array.length events in
  Array.iteri
    (fun i (time, ev) ->
      match ev with
      | Event.Hm_error { level; code; partition; process; _ } ->
        (* The action events answering this error: same instant, before
           the next HM error (handling is synchronous). The first of the
           error's level is the resolved action; a [Log_then] unwrap may
           append further same-level events, all part of this incident. *)
        let first_action = ref None in
        let j = ref (i + 1) in
        let stop = ref false in
        while (not !stop) && !j < n do
          let tj, evj = events.(!j) in
          if tj <> time then stop := true
          else begin
            (match evj with
            | Event.Hm_error _ -> stop := true
            | Event.Hm_process_action { process = pr; action }
              when Error.level_equal level Error.Process_level ->
              if !first_action = None then
                first_action := Some (`Process (pr, action))
            | Event.Hm_partition_action { partition = pa; action }
              when Error.level_equal level Error.Partition_level ->
              if !first_action = None then
                first_action := Some (`Partition (pa, action))
            | Event.Hm_module_action { action }
              when Error.level_equal level Error.Module_level ->
              if !first_action = None then first_action := Some (`Module action)
            | _ -> ());
            if not !stop then incr j
          end
        done;
        (match !first_action with
        | None -> () (* log-only trap; nothing was resolved *)
        | Some got -> (
          count ();
          let mismatch expected_pp got_pp =
            fail "action-matching"
              (Format.asprintf
                 "at %a: %a error resolved to %s but the trace applied %s"
                 Time.pp time Error.pp_code code expected_pp got_pp)
          in
          match (got, partition, process) with
          | `Process (pr, action), Some pid, Some prid ->
            let resolved =
              Air.Hm.resolve_process_error hm ~partition:pid
                ~process:(Process_id.index prid) ~code
            in
            if not (Process_id.equal pr prid) then
              fail "action-matching"
                (Format.asprintf
                   "at %a: action applied to %a but the error blamed %a"
                   Time.pp time Process_id.pp pr Process_id.pp prid)
            else if resolved <> action then
              mismatch
                (Format.asprintf "%a" Error.pp_process_action resolved)
                (Format.asprintf "%a" Error.pp_process_action action)
          | `Partition (pa, action), Some pid, _ ->
            let resolved =
              Air.Hm.resolve_partition_error hm ~partition:pid ~code
            in
            if not (Partition_id.equal pa pid) then
              fail "action-matching"
                (Format.asprintf
                   "at %a: action applied to %a but the error blamed %a"
                   Time.pp time Partition_id.pp pa Partition_id.pp pid)
            else if resolved <> action then
              mismatch
                (Format.asprintf "%a" Error.pp_partition_action resolved)
                (Format.asprintf "%a" Error.pp_partition_action action)
          | `Module action, _, _ ->
            let resolved = Air.Hm.resolve_module_error hm ~code in
            if resolved <> action then
              mismatch
                (Format.asprintf "%a" Error.pp_module_action resolved)
                (Format.asprintf "%a" Error.pp_module_action action)
          | (`Process _ | `Partition _), _, _ ->
            fail "action-matching"
              (Format.asprintf
                 "at %a: %a error carries no blamed partition/process"
                 Time.pp time Error.pp_code code)))
      | _ -> ())
    events

let check (run : Engine.run) =
  let sys = Engine.system run in
  let base = Engine.baseline_system run in
  let findings = ref [] in
  let checks = ref 0 in
  let fail check detail = findings := { check; detail } :: !findings in
  let count () = incr checks in
  let scoped, module_scope = blame_of run in
  let excused p = module_scope || Hashtbl.mem scoped p in
  (* The campaign trace's deadline misses, HM errors and actions and output
     lines, decoded once for the three walks below. Dropping the other
     kinds changes no walk: instants never decrease along a trace, so no
     dropped event can separate an HM error from a same-instant action. *)
  let events =
    Array.of_list
      (Trace.filter
         (fun _ -> function
           | Event.Deadline_violation _ | Event.Application_output _
           | Event.Hm_error _ | Event.Hm_process_action _
           | Event.Hm_partition_action _ | Event.Hm_module_action _ -> true
           | _ -> false)
         (Air.System.trace sys))
  in
  (* Deadline and HM containment: walk the campaign trace. *)
  Array.iter
    (fun (time, ev) ->
      match ev with
      | Event.Deadline_violation { process; _ } ->
        count ();
        let p = Partition_id.index (Process_id.partition process) in
        if not (excused p) then
          fail "deadline-containment"
            (Format.asprintf
               "deadline miss in untargeted partition %d at %a" p Time.pp
               time)
      | Event.Hm_error { level; code; partition; _ } -> (
        count ();
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
      | _ -> ())
    events;
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
    let got = Hashtbl.create 8 and want = Hashtbl.create 8 in
    Array.iter (fun (_, ev) -> count_output got ev) events;
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
  (* HM action matching (stateful table replay). *)
  replay_actions ~fail ~count sys events;
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
