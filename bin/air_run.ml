(* air_run — run a configured AIR module and report what happened.

   Loads a configuration document, simulates it for the requested number of
   clock ticks, and prints the summary an integrator cares about: deadline
   violations, health-monitoring events, schedule switches, processor
   occupation, and (optionally) the tail of the event trace. *)

open Cmdliner
open Air_model

let export_trace trace oc =
  let ppf = Format.formatter_of_out_channel oc in
  Air_sim.Trace.iter
    (fun t ev -> Format.fprintf ppf "%d\t%a@." t Event.pp ev)
    trace;
  Format.pp_print_flush ppf ()

(* [contents] and a closing newline. *)
let line oc contents =
  Out_channel.output_string oc contents;
  Out_channel.output_char oc '\n'

(* Every file the program writes goes through here: when the flag gave
   a [file], [write] fills it, then "<what> exported to <file><suffix>"
   goes to stdout. A file that cannot be written is reported on stderr
   and yields [false], so the run finishes its other outputs and exits 1.
   Without a file there is nothing to write, and the result is [true]. *)
let export_to ~what ?(suffix = "") file write =
  match file with
  | None -> true
  | Some file -> (
    match Out_channel.with_open_text file write with
    | () ->
      Format.printf "%s exported to %s%s@." what file suffix;
      true
    | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      false)

(* System.create and Fleet.create reject a configuration they cannot run
   (overlapping windows, a fleet link with no lookahead) with
   Invalid_argument: report it against the document and exit 1, else
   continue with the built value. *)
let created path create k =
  match create () with
  | v -> k v
  | exception Invalid_argument e ->
    Format.eprintf "%s: %s@." path e;
    1

(* A flight recorder for spans and a causal tracker for flow arrows,
   unless the document already configured them. *)
let with_recorder (cfg : Air.System.config) =
  if cfg.Air.System.recorder <> None then cfg
  else { cfg with Air.System.recorder = Some (Air_obs.Span.create ()) }

let with_causal (cfg : Air.System.config) =
  if cfg.Air.System.causal <> None then cfg
  else { cfg with Air.System.causal = Some (Air_obs.Causal.create ()) }

(* A run reports on all of itself: every module keeps its whole trace,
   which the default configuration bounds. *)
let whole_run (cfg : Air.System.config) =
  { cfg with Air.System.trace_capacity = None }

(* Every module of a cluster or fleet keeps its whole trace; observability
   exports need each one instrumented with a recorder and a tracker too. *)
let instrument ~observed _ cfg =
  let cfg = whole_run cfg in
  if observed then with_causal (with_recorder cfg) else cfg

let halted_note system =
  match Air.System.halted system with
  | Some reason -> Printf.sprintf " (HALTED: %s)" reason
  | None -> ""

(* Resolve a flow's origin (module, port index) to the declared port name
   through the module's router, for the flows table. *)
let port_name_of systems ~module_id ~port =
  if module_id < 0 || module_id >= Array.length systems then None
  else
    List.assoc_opt port
      (Air_ipc.Router.port_names (Air.System.router systems.(module_id)))

(* The lines that open a cluster or fleet report: [head], the bus totals,
   then one line per module, or with [~every:false] only per module that
   missed a deadline or halted. *)
let group_report ~head ~every cluster =
  let stats = Air.Cluster.stats cluster in
  Format.printf "%s: %d messages transferred, %d dropped, %d in flight@."
    head stats.Air.Cluster.transferred stats.Air.Cluster.dropped
    stats.Air.Cluster.in_flight;
  Array.iteri
    (fun i system ->
      let violations = List.length (Air.System.violations system) in
      if every || violations > 0 || Air.System.halted system <> None then
        Format.printf "module %d: %d deadline violations%s@." i violations
          (halted_note system))
    (Air.Cluster.systems cluster)

(* The outputs that close a cluster or fleet run: the cross-module flows
   table and the merged Chrome trace. *)
let group_tail ~what cluster trace_json flows =
  if flows then begin
    Format.printf "@.cross-module flows:@.";
    print_string
      (Air_vitral.Flows.render
         ~port_name:(port_name_of (Air.Cluster.systems cluster))
         (Air.Cluster.flow_entries cluster))
  end;
  if
    export_to ~what:(what ^ " chrome trace") trace_json (fun oc ->
        line oc (Air.Cluster.chrome_trace cluster))
  then 0
  else 1

let run_cluster cluster ticks trace_json flows =
  Air.Cluster.run cluster ~ticks;
  group_report ~head:(Printf.sprintf "cluster ran %d ticks" ticks) ~every:true
    cluster;
  group_tail ~what:"cluster" cluster trace_json flows

(* Fleet mode: an (air-fleet …) document stamps a constellation out of a
   template and runs it through the parallel discrete-event engine —
   bit-identical to the sequential cluster run for any --domains. More
   domains than the machine recommends only make the run slower, so the
   count is clamped to it, with a warning. *)
let run_fleet path { Air_config.Loader.fleet_cluster = cluster; fleet_domains }
    ticks domains trace_json flows speed =
  let domains = Option.value domains ~default:fleet_domains in
  let cores = Domain.recommended_domain_count () in
  let domains =
    if domains <= cores then domains
    else begin
      Format.eprintf
        "warning: %d domains requested, clamped to %d (the machine's \
         recommended domain count)@."
        domains cores;
      cores
    end
  in
  created path (fun () -> Air_fleet.Fleet.create ~domains cluster)
  @@ fun fleet ->
  let wall_start = Unix.gettimeofday () in
  Air_fleet.Fleet.run fleet ~ticks;
  let wall = Unix.gettimeofday () -. wall_start in
  Air_fleet.Fleet.close fleet;
  let domains = Air_fleet.Fleet.domains fleet in
  group_report ~every:false cluster
    ~head:
      (Printf.sprintf "fleet ran %d ticks on %d domain%s" ticks domains
         (if domains = 1 then "" else "s"));
  print_string (Air_obs.Fleet_stats.to_text (Air_fleet.Fleet.stats fleet));
  Format.printf "fingerprint: %s@." (Air_fleet.Fleet.fingerprint cluster);
  if speed then
    Format.eprintf "speed: %d simulated ticks in %.3f s wall (%.0f ticks/s)@."
      ticks wall
      (float_of_int ticks /. Float.max wall 1e-9);
  group_tail ~what:"fleet" cluster trace_json flows

(* Campaign mode: run every (faults (campaign …)) of the document through
   the injection engine, judge containment, and print/export the reports.
   Every system is built fresh by reloading the document, four per
   campaign (its target and baseline, then the two targets [reproducible]
   compares), so no two runs share mutable state. Each keeps its whole
   trace, which the oracle replays from tick 0. *)
let run_campaigns path campaign_json ~turbo ~cores =
  match Air_config.Loader.load_campaigns_file path with
  | Error e ->
    Format.eprintf "%s: %s@." path e;
    1
  | Ok [] ->
    Format.eprintf "%s: no (faults (campaign …)) section@." path;
    1
  | Ok specs -> (
    let make () =
      match Air_config.Loader.load_file path with
      | Ok cfg ->
        let cfg = whole_run cfg in
        let cfg =
          match cores with
          | Some n -> { cfg with Air.System.cores = Some n }
          | None -> cfg
        in
        (match Air.System.create cfg with
        | system -> Air_faults.Engine.Module system
        | exception Invalid_argument e -> failwith e)
      | Error e -> failwith e
    in
    match
      List.map
        (fun spec ->
          let run = Air_faults.Engine.execute ~turbo ~make spec in
          let verdict = Air_faults.Oracle.check run in
          let reproducible =
            Air_faults.Engine.reproducible ~turbo ~make spec
          in
          Air_faults.Report.make ~reproducible run verdict)
        specs
    with
    | exception Failure e ->
      Format.eprintf "%s: %s@." path e;
      1
    | reports ->
      List.iter (fun r -> print_string (Air_faults.Report.to_text r)) reports;
      let json_ok =
        export_to ~what:"campaign report" campaign_json (fun oc ->
            line oc (Air_faults.Report.document reports))
      in
      let contained =
        List.for_all
          (fun r -> Air_faults.Oracle.passed r.Air_faults.Report.verdict)
          reports
      and deterministic =
        List.for_all
          (fun r -> r.Air_faults.Report.reproducible = Some true)
          reports
      in
      if not json_ok then 1 else if contained && deterministic then 0 else 2)

let run_file path ticks show_trace show_gantt export metrics_json trace_json
    check_trace timeline telemetry_csv telemetry_json watch faults
    campaign_json cores no_skip speed profile profile_json flows fleet domains
    =
  let turbo = not no_skip in
  let campaigns = faults || campaign_json <> None
  and fleet_mode = fleet || domains <> None in
  (* Flags only a module run reads (a fleet run reads --speed too): a
     cluster or fleet run would ignore them. *)
  let module_flags =
    List.filter_map
      (fun (flag, given) -> if given then Some flag else None)
      [ ("--check-trace", check_trace);
        ("--export", export <> None);
        ("--metrics-json", metrics_json <> None);
        ("--telemetry-csv", telemetry_csv <> None);
        ("--telemetry-json", telemetry_json <> None);
        ("--watch", watch <> None);
        ("--timeline", timeline);
        ("--gantt", show_gantt);
        ("--trace", show_trace);
        ("--profile", profile);
        ("--profile-json", profile_json <> None);
        ("--cores", cores <> None);
        ("--no-skip", no_skip) ]
  in
  let misplaced flags =
    Format.eprintf "%s: %s run against a module document@." path
      (String.concat ", " flags);
    1
  in
  let instrument = instrument ~observed:(trace_json <> None || flows) in
  match Air_config.Loader.load_document ~instrument path with
  | Error e ->
    Format.eprintf "%s: %s@." path e;
    1
  | Ok (Air_config.Loader.Module _ | Cluster _) when fleet_mode ->
    Format.eprintf "%s: --fleet/--domains need an (air-fleet …) document@."
      path;
    1
  | Ok (Cluster _ | Fleet _) when campaigns ->
    Format.eprintf "%s: --faults runs against a module document@." path;
    1
  | Ok (Module _) when campaigns ->
    run_campaigns path campaign_json ~turbo ~cores
  | Ok (Fleet _) when module_flags <> [] -> misplaced module_flags
  | Ok (Fleet fleet) ->
    run_fleet path fleet ticks domains trace_json flows speed
  | Ok (Cluster _) when module_flags <> [] || speed ->
    misplaced (module_flags @ if speed then [ "--speed" ] else [])
  | Ok (Cluster cluster) -> run_cluster cluster ticks trace_json flows
  | Ok (Module cfg) ->
    (* The flight recorder is only attached when some output needs it. *)
    let cfg = whole_run cfg in
    let cfg =
      if trace_json <> None || timeline then with_recorder cfg else cfg
    in
    (* Likewise telemetry: any downlink flag attaches a default frame
       accumulator unless the document configured one itself. *)
    let wants_telemetry =
      telemetry_csv <> None || telemetry_json <> None || watch <> None
    in
    let cfg =
      if wants_telemetry && cfg.Air.System.telemetry = None then
        { cfg with
          Air.System.telemetry = Some Air_obs.Telemetry.default_config }
      else cfg
    in
    (* --cores overrides the document's (cores N), if any. *)
    let cfg =
      match cores with
      | Some n -> { cfg with Air.System.cores = Some n }
      | None -> cfg
    in
    (* --flows needs the causal tracker stamping IPC messages. *)
    let cfg = if flows then with_causal cfg else cfg in
    created path (fun () -> Air.System.create cfg) @@ fun system ->
    let partition_names =
      List.filter (fun (i, _) -> i >= 0) (Air.System.track_names system)
    in
    let schedule_names =
      List.mapi (fun i s -> (i, s.Schedule.name)) cfg.Air.System.schedules
    in
    (* With a contention model, the dashboard grows a derived throttle
       column: the share of the partition's held ticks served as
       interference stall in its latest frame. *)
    let derived =
      match Air.System.contention system with
      | None -> []
      | Some _ ->
        [ ( "thr%",
            fun (pf : Air_obs.Telemetry.partition_frame) ->
              if pf.Air_obs.Telemetry.pf_window_ticks <= 0 then "-"
              else
                Printf.sprintf "%d%%"
                  (pf.Air_obs.Telemetry.pf_throttled * 100
                  / pf.Air_obs.Telemetry.pf_window_ticks) ) ]
    in
    let print_dashboard () =
      print_string
        (Air_vitral.Dashboard.render ~schedules:schedule_names ~derived
           ~partitions:partition_names
           (Air.System.telemetry_frames system))
    in
    (* The executive: skip-ahead by default, per-tick under --no-skip;
       either way the observable run is identical. *)
    let profiler =
      if profile || profile_json <> None then
        Some (Air_exec.Profiler.create ())
      else None
    in
    let engine =
      Air_exec.Engine.create ?profiler
        ~mode:(if turbo then Air_exec.Engine.Adaptive else Per_tick)
        system
    in
    let wall_start = Unix.gettimeofday () in
    (match watch with
    | None -> Air_exec.Engine.advance engine ~ticks
    | Some every ->
      (* Watch mode advances whole MTFs so every dashboard refresh lines
         up with a frame boundary; the run therefore covers at least
         [ticks] ticks, rounded up to the boundary. *)
      while Air.System.now system + 1 < ticks do
        Air_exec.Engine.run_mtfs engine every;
        print_dashboard ()
      done);
    let wall = Unix.gettimeofday () -. wall_start in
    let ticks =
      if watch = None then ticks else Air.System.now system + 1
    in
    if speed then begin
      let simulated = Air_exec.Engine.simulated engine in
      let stats = Air_exec.Engine.stats engine in
      Format.eprintf
        "speed: %d simulated ticks in %.3f s wall (%.0f ticks/s; %d \
         stepped, %d skipped)@."
        simulated wall
        (float_of_int simulated /. Float.max wall 1e-9)
        stats.Air_exec.Engine.stepped stats.Air_exec.Engine.skipped
    end;
    let trace = Air.System.trace system in
    Format.printf "ran %d ticks%s@." ticks (halted_note system);
    let violations = Air.System.violations system in
    Format.printf "deadline violations: %d@." (List.length violations);
    List.iter
      (fun (t, p, d) ->
        Format.printf "  [%d] %a missed deadline %d@." t Ident.Process_id.pp p
          d)
      violations;
    let hm_errors =
      Air_sim.Trace.filter (fun _ -> Event.is_hm_error) trace
    in
    Format.printf "health-monitor errors: %d@." (List.length hm_errors);
    List.iter
      (fun (t, ev) -> Format.printf "  [%d] %a@." t Event.pp ev)
      hm_errors;
    Air_sim.Trace.iter
      (fun t ev ->
        if Event.is_schedule_switch ev then
          Format.printf "  [%d] %a@." t Event.pp ev)
      trace;
    let partitions = Air.System.partition_ids system in
    Format.printf "processor occupation (whole run):@.";
    List.iter
      (fun (owner, n) ->
        Format.printf "  %-8s %8d ticks (%.1f%%)@."
          (match owner with
          | None -> "idle"
          | Some p -> Format.asprintf "%a" Ident.Partition_id.pp p)
          n
          (float_of_int n /. float_of_int ticks *. 100.0))
      (Air_vitral.Gantt.occupancy ~partitions ~from:0 ~until:ticks
         (Air.System.activity system));
    if show_gantt then begin
      let upto = min ticks 2000 in
      print_string
        (Air_vitral.Gantt.of_activity ~partitions ~from:0 ~until:upto
           (Air.System.activity system))
    end;
    Format.printf "@.%s" (Air.System.metrics_report system);
    let metrics_ok =
      export_to ~what:"metrics" metrics_json (fun oc ->
          line oc (Air.System.metrics_json system))
    in
    if show_trace then begin
      Format.printf "@.trace tail:@.";
      let events = Air_sim.Trace.to_list trace in
      let n = List.length events in
      List.iteri
        (fun i (t, ev) ->
          if i >= n - 30 then Format.printf "  [%d] %a@." t Event.pp ev)
        events
    end;
    let trace_ok =
      export_to ~what:"trace"
        ~suffix:(Printf.sprintf " (%d events)" (Air_sim.Trace.length trace))
        export (export_trace trace)
    in
    if timeline then begin
      Format.printf "@.flight recorder timeline:@.";
      let opens =
        match Air.System.recorder system with
        | None -> []
        | Some r -> Air_obs.Span.open_spans r ~now:(Air.System.now system)
      in
      print_string
        (Air_vitral.Timeline.render
           ~tracks:(Air.System.track_names system)
           ~lanes:(Option.value ~default:1 cfg.Air.System.cores)
           (Air.System.spans system @ opens))
    end;
    if flows then begin
      Format.printf "@.message flows:@.";
      print_string
        (Air_vitral.Flows.render ~port_name:(port_name_of [| system |])
           (Air.System.flow_entries system))
    end;
    if profile then begin
      Format.printf "@.";
      match Air_exec.Engine.profiler engine with
      | Some p -> print_string (Air_exec.Profiler.to_text p)
      | None -> ()
    end;
    let profile_ok =
      match Air_exec.Engine.profiler engine with
      | None -> true
      | Some p ->
        export_to ~what:"engine profile" profile_json (fun oc ->
            line oc (Air_exec.Profiler.to_json p))
    in
    let chrome_ok =
      export_to ~what:"chrome trace" trace_json (fun oc ->
          line oc (Air.System.chrome_trace system))
    in
    let telemetry_ok =
      if not wants_telemetry then true
      else begin
        (* Close the trailing partial frame so the exports cover the whole
           run even when it does not end on an MTF boundary. *)
        (match Air.System.telemetry_flush system with
        | Some _ when watch <> None -> print_dashboard ()
        | Some _ | None -> ());
        let frames = Air.System.telemetry_frames system in
        let suffix = Printf.sprintf " (%d frames)" (List.length frames) in
        let json_ok =
          export_to ~what:"telemetry JSON" ~suffix telemetry_json (fun oc ->
              line oc (Air_obs.Telemetry.to_json frames))
        in
        let csv_ok =
          export_to ~what:"telemetry CSV" ~suffix telemetry_csv (fun oc ->
              Out_channel.output_string oc (Air_obs.Telemetry.to_csv frames))
        in
        json_ok && csv_ok
      end
    in
    let check_ok =
      if not check_trace then true
      else begin
        let findings =
          Air_faults.Oracle.replay cfg
            ~until:(Air.System.now system + 1)
            ~outcomes:[] trace
        in
        Format.printf "trace check: %d violation%s@." (List.length findings)
          (if List.length findings = 1 then "" else "s");
        List.iter
          (fun f -> Format.printf "  %a@." Air_faults.Oracle.pp_finding f)
          findings;
        findings = []
      end
    in
    if
      not
        (metrics_ok && trace_ok && chrome_ok && telemetry_ok && check_ok
        && profile_ok)
    then 1
    else if Air.System.halted system = None then 0
    else 2

let path_arg =
  let doc = "Configuration document (.air) to run." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG" ~doc)

(* An integer flag with a lower bound: a smaller value is a usage error
   naming the flag. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let ticks_arg =
  let doc = "Number of system clock ticks to simulate." in
  Arg.(value & opt (int_at_least 0) 10_000 & info [ "t"; "ticks" ] ~doc)

let trace_flag =
  let doc = "Print the last 30 trace events." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let gantt_flag =
  let doc = "Print a Gantt chart of the first 2000 ticks." in
  Arg.(value & flag & info [ "g"; "gantt" ] ~doc)

let export_arg =
  let doc = "Write the full event trace (tab-separated) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"FILE" ~doc)

let metrics_json_arg =
  let doc = "Write the end-of-run metrics snapshot as JSON to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let trace_json_arg =
  let doc =
    "Record the run with the flight recorder and write it as Chrome \
     trace-event JSON to $(docv) (loadable in chrome://tracing or Perfetto)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let check_trace_arg =
  let doc =
    "Replay the event trace against the configured schedules and report \
     temporal-invariant violations (nonzero exit when any is found)."
  in
  Arg.(value & flag & info [ "check-trace" ] ~doc)

let timeline_flag =
  let doc = "Print the flight-recorder spans as a text timeline." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let telemetry_csv_arg =
  let doc =
    "Write the per-MTF telemetry frames as CSV (one row per frame and \
     partition) to $(docv)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-csv" ] ~docv:"FILE" ~doc)

let telemetry_json_arg =
  let doc = "Write the per-MTF telemetry frames as JSON to $(docv)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-json" ] ~docv:"FILE" ~doc)

let watch_arg =
  let doc =
    "Run in whole major time frames and print the telemetry dashboard \
     every $(docv) MTFs (the run is rounded up to an MTF boundary)."
  in
  Arg.(
    value & opt (some (int_at_least 1)) None & info [ "watch" ] ~docv:"N" ~doc)

let faults_flag =
  let doc =
    "Run the document's (faults …) campaigns through the injection engine \
     instead of a plain simulation: each campaign is executed over its own \
     horizon, checked for reproducibility, and judged by the containment \
     oracle (exit 2 when a campaign breaches containment or diverges)."
  in
  Arg.(value & flag & info [ "faults" ] ~doc)

let campaign_json_arg =
  let doc =
    "Write the campaign reports as an air-campaign/1 JSON document to \
     $(docv) (implies $(b,--faults))."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "campaign-json" ] ~docv:"FILE" ~doc)

let cores_arg =
  let doc =
    "Shard every schedule over $(docv) processor cores and drive one PMK \
     lane per core off the global clock (overrides the document's (cores \
     N), if any). Window offsets are preserved, so the run is \
     time-faithful to the single-core one; mode-based schedule switches \
     are broadcast to every lane."
  in
  Arg.(
    value & opt (some (int_at_least 1)) None & info [ "cores" ] ~docv:"N" ~doc)

let no_skip_flag =
  let doc =
    "Force per-tick execution. By default the executive runs in turbo: it \
     computes the next interesting tick (window edge, MTF boundary, \
     pending wake or PAL deadline, fault injection) and advances \
     provably-quiet spans in O(1) — observationally identical, just \
     faster on sparse workloads."
  in
  Arg.(value & flag & info [ "no-skip" ] ~doc)

let profile_flag =
  let doc =
    "Profile the skip-ahead executive: attribute wall clock and ticks to \
     per-tick steps, blind batches, skipped spans and probes \
     (successful/wasted), and print the bucket report after the run. The \
     run itself is bit-identical to an unprofiled one."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_json_arg =
  let doc =
    "Write the engine profile as an air-profile/1 JSON document to $(docv) \
     (implies profiling the run)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE" ~doc)

let flows_flag =
  let doc =
    "Stamp every IPC message with a causal correlation id and print the \
     per-flow table after the run: messages sent/delivered/forwarded/\
     perturbed per origin port, with end-to-end latency percentiles. On a \
     cluster document every module is instrumented and cross-module flows \
     include bus time."
  in
  Arg.(value & flag & info [ "flows" ] ~doc)

let speed_flag =
  let doc =
    "Print a speed summary to stderr after the run: simulated ticks, wall \
     seconds, ticks per second, and the stepped/skipped split of the \
     skip-ahead executive (module and fleet runs)."
  in
  Arg.(value & flag & info [ "speed" ] ~doc)

let fleet_flag =
  let doc =
    "Require the document to be an (air-fleet …) constellation and run it \
     through the parallel fleet engine (fleet documents are detected \
     automatically; this flag makes the intent explicit and errors on any \
     other document kind)."
  in
  Arg.(value & flag & info [ "fleet" ] ~doc)

let domains_arg =
  let doc =
    "Advance the constellation on $(docv) OCaml domains (overrides the \
     document's (domains N)). Whatever the count, traces, telemetry, \
     counters and the printed fingerprint are bit-identical to the \
     sequential run: shards only advance inside the conservative lookahead \
     window granted by the minimum link latency, and cross-shard messages \
     are replayed in the sequential drain order at every window barrier."
  in
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "domains" ] ~docv:"N" ~doc)

let cmd =
  let doc = "run an AIR module from its integration configuration" in
  Cmd.v
    (Cmd.info "air_run" ~doc)
    Term.(const run_file $ path_arg $ ticks_arg $ trace_flag $ gantt_flag
          $ export_arg $ metrics_json_arg $ trace_json_arg $ check_trace_arg
          $ timeline_flag $ telemetry_csv_arg $ telemetry_json_arg
          $ watch_arg $ faults_flag $ campaign_json_arg $ cores_arg
          $ no_skip_flag $ speed_flag $ profile_flag $ profile_json_arg
          $ flows_flag $ fleet_flag $ domains_arg)

let () = exit (Cmd.eval' cmd)
