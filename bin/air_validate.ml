(* air_validate — offline verification of integrator-defined parameters.

   Validates a configuration document: syntax, schedule constraints
   (eqs. (21)–(23)), port network wiring, and optionally prints the Gantt
   charts and the eq. (23)/(25) derivations of every table. A cluster or
   fleet document is validated by loading it: every module document it
   names, and every link's gateway and ingress port. This is the
   "offline tools that verify the fulfilment of the timing requirements"
   of paper Sect. 5. *)

open Cmdliner
open Air_model

let report_of cfg =
  let partitions =
    List.map
      (fun (s : Air.System.partition_setup) -> s.Air.System.partition)
      cfg.Air.System.partitions
  in
  Air_analysis.Report.build partitions cfg.Air.System.schedules

(* A group document that loads is valid: the loader builds every module
   and checks each link's ports. *)
let validate_group path kind cluster =
  let links = Array.length (Air.Cluster.links cluster) in
  Format.printf "%s: valid — %s of %d modules, %d link%s@." path kind
    (Array.length (Air.Cluster.systems cluster))
    links
    (if links = 1 then "" else "s");
  0

let validate_file path show_gantt explain report =
  match Air_config.Loader.load_document path with
  | Error e ->
    Format.eprintf "%s: %s@." path e;
    1
  | Ok (Air_config.Loader.Cluster cluster) ->
    validate_group path "cluster" cluster
  | Ok (Fleet fleet) ->
    validate_group path "fleet" fleet.Air_config.Loader.fleet_cluster
  | Ok (Module cfg) ->
    let schedules = cfg.Air.System.schedules in
    let diags = Validate.validate_set schedules in
    let port_diags = Air_ipc.Port.validate cfg.Air.System.network in
    List.iter
      (fun d -> Format.printf "schedule: %a@." Validate.pp_diagnostic d)
      diags;
    List.iter (fun d -> Format.printf "ports: %s@." d) port_diags;
    if show_gantt then
      List.iter (fun s -> print_string (Air_vitral.Gantt.of_schedule s)) schedules;
    if explain then
      List.iter
        (fun (s : Schedule.t) ->
          List.iter
            (fun (r : Schedule.requirement) ->
              if r.Schedule.duration > 0 && s.Schedule.mtf mod r.Schedule.cycle = 0
              then
                for k = 0 to (s.Schedule.mtf / r.Schedule.cycle) - 1 do
                  Format.printf "%t@." (fun ppf ->
                      Validate.explain_requirement ppf s r.Schedule.partition
                        ~k)
                done)
            s.Schedule.requirements)
        schedules;
    if report then Format.printf "%a" Air_analysis.Report.pp (report_of cfg);
    if diags = [] && port_diags = [] then begin
      Format.printf
        "%s: valid — %d partitions, %d schedules, %d ports@." path
        (List.length cfg.Air.System.partitions)
        (List.length schedules)
        (List.length cfg.Air.System.network.Air_ipc.Port.ports);
      0
    end
    else begin
      Format.printf "%s: invalid — %d schedule and %d port diagnostics@."
        path (List.length diags) (List.length port_diags);
      1
    end

let path_arg =
  let doc = "Configuration document (.air) to validate." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG" ~doc)

let gantt_flag =
  let doc = "Print a Gantt chart of every schedule." in
  Arg.(value & flag & info [ "g"; "gantt" ] ~doc)

let explain_flag =
  let doc =
    "Print the eq. (23) derivation for every partition and cycle (the \
     paper's eq. (25))."
  in
  Arg.(value & flag & info [ "e"; "explain" ] ~doc)

let report_flag =
  let doc =
    "Print the full integration report: supply characteristics and \
     response-time verdicts for every process under every schedule."
  in
  Arg.(value & flag & info [ "r"; "report" ] ~doc)

let cmd =
  let doc = "validate an AIR integration configuration" in
  Cmd.v
    (Cmd.info "air_validate" ~doc)
    Term.(const validate_file $ path_arg $ gantt_flag $ explain_flag
          $ report_flag)

let () = exit (Cmd.eval' cmd)
