(* Tests for the workload generators and the VITRAL-style rendering. *)

open Air_model

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Workloads ------------------------------------------------------------ *)

let mission_schedules_valid () =
  check Alcotest.int "valid" 0
    (List.length (Validate.validate_set Air_workload.Mission.schedules))

let mission_runs_through_phases () =
  let s = Air_workload.Mission.make () in
  Air.System.run_mtfs s 2;
  Result.get_ok (Air.System.request_schedule s Air_workload.Mission.science);
  Air.System.run_mtfs s 2;
  Result.get_ok (Air.System.request_schedule s Air_workload.Mission.safe);
  Air.System.run_mtfs s 2;
  check Alcotest.int "two switches" 2
    (Air_sim.Trace.count Event.is_schedule_switch (Air.System.trace s));
  (* Launch phase gives the payload no processor time. *)
  let occupancy phase_start =
    Air_vitral.Gantt.occupancy
      ~partitions:(Air.System.partition_ids s)
      ~from:phase_start ~until:(phase_start + 1200) (Air.System.activity s)
  in
  let share occ p =
    match List.assoc_opt (Some p) occ with Some n -> n | None -> 0
  in
  check Alcotest.int "payload dark at launch" 0
    (share (occupancy 0) Air_workload.Mission.payload);
  check Alcotest.bool "payload lit in science" true
    (share (occupancy 2400) Air_workload.Mission.payload >= 500)

let mission_change_action_fires () =
  let s = Air_workload.Mission.make () in
  Air.System.run_mtfs s 1;
  Result.get_ok (Air.System.request_schedule s Air_workload.Mission.science);
  Air.System.run_mtfs s 3;
  (* Science's ScheduleChangeAction cold-restarts the payload at its first
     dispatch under the new schedule. *)
  check Alcotest.bool "cold restart applied" true
    (Air_sim.Trace.count
       (function
         | Event.Change_action
             { action = Schedule.Cold_restart_partition; _ } ->
           true
         | _ -> false)
       (Air.System.trace s)
    > 0)

let taskgen_properties =
  QCheck.Test.make ~name:"taskgen: structure and utilization bounds"
    QCheck.(pair int (int_range 1 6))
    (fun (seed, n) ->
      let rng = Air_sim.Rng.create seed in
      let g = Air_workload.Taskgen.generate rng ~n_partitions:n in
      List.length g.Air_workload.Taskgen.partitions = n
      && List.length g.Air_workload.Taskgen.requirements = n
      && List.for_all
           (fun ((p : Partition.t), scripts) ->
             Partition.process_count p = List.length scripts
             && Array.for_all
                  (fun (spec : Process.spec) -> spec.Process.wcet >= 1)
                  p.Partition.processes)
           g.Air_workload.Taskgen.partitions
      && List.for_all
           (fun (r : Schedule.requirement) ->
             r.Schedule.duration >= 1 && r.Schedule.duration <= r.Schedule.cycle)
           g.Air_workload.Taskgen.requirements)

let taskgen_synthesizable () =
  let rng = Air_sim.Rng.create 2024 in
  let g = Air_workload.Taskgen.generate rng ~n_partitions:4 ~utilization:0.6 in
  match Air_analysis.Synthesis.synthesize g.Air_workload.Taskgen.requirements with
  | Ok s -> check Alcotest.int "valid" 0 (List.length (Validate.validate s))
  | Error f ->
    Alcotest.failf "synthesis failed: %a" Air_analysis.Synthesis.pp_failure f

let taskgen_babbling () =
  let rng = Air_sim.Rng.create 7 in
  let g = Air_workload.Taskgen.generate rng ~n_partitions:2 in
  let g = Air_workload.Taskgen.with_babbling g ~partition:0 in
  match g.Air_workload.Taskgen.partitions with
  | ((p : Partition.t), _) :: _ ->
    check Alcotest.string "renamed" Air_workload.Taskgen.babbling_name
      p.Partition.processes.(0).Process.name;
    check Alcotest.int "highest priority" 0
      p.Partition.processes.(0).Process.base_priority
  | [] -> Alcotest.fail "no partitions"

(* --- VITRAL ---------------------------------------------------------------- *)

let window_rendering () =
  let w = Air_vitral.Window.create ~height:2 ~title:"P1" ~width:10 () in
  Air_vitral.Window.push w "hello";
  Air_vitral.Window.push w "world";
  Air_vitral.Window.push w "scrolled in";
  (* Oldest line scrolled out. *)
  check Alcotest.(list string) "scrollback" [ "world"; "scrolled i" ]
    (Air_vitral.Window.lines w);
  let rendered = Air_vitral.Window.render w in
  check Alcotest.int "height + borders" 4 (List.length rendered);
  (* Every rendered line has the same display width. *)
  let widths =
    List.map
      (fun line ->
        (* count UTF-8 codepoints *)
        let n = ref 0 in
        String.iter
          (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n)
          line;
        !n)
      rendered
  in
  (match widths with
  | first :: rest ->
    List.iter (fun width -> check Alcotest.int "uniform width" first width) rest
  | [] -> Alcotest.fail "no lines")

let window_grid () =
  let mk title =
    let w = Air_vitral.Window.create ~height:1 ~title ~width:6 () in
    Air_vitral.Window.push w title;
    w
  in
  let grid = Air_vitral.Window.render_grid ~columns:2 [ mk "a"; mk "b"; mk "c" ] in
  (* Two rows: 3 lines each (border, content, border), plus a newline join. *)
  check Alcotest.int "rows" 6 (List.length (String.split_on_char '\n' grid))

let gantt_occupancy_reconstruction () =
  (* Synthetic context-switch history: P1 owns [0,10), idle [10,15),
     P2 [15,30). *)
  let p0 = Ident.Partition_id.make 0 and p1 = Ident.Partition_id.make 1 in
  let switches = [ (0, Some p0); (10, None); (15, Some p1) ] in
  let occ =
    Air_vitral.Gantt.occupancy ~partitions:[ p0; p1 ] ~from:0 ~until:30
      switches
  in
  check Alcotest.int "P1" 10 (List.assoc (Some p0) occ);
  check Alcotest.int "P2" 15 (List.assoc (Some p1) occ);
  check Alcotest.int "idle" 5 (List.assoc None occ)

(* The per-tick model of [occupancy]: tick [i] belongs to the owner of the
   last switch at or before it, and to nobody before the first switch. *)
let occupancy_model ~partitions ~from ~until switches =
  let owner i =
    List.fold_left (fun acc (t, o) -> if t <= i then o else acc) None switches
  in
  let count target =
    let n = ref 0 in
    for i = from to until - 1 do
      if Option.equal Ident.Partition_id.equal (owner i) target then incr n
    done;
    !n
  in
  List.map (fun p -> (Some p, count (Some p))) partitions
  @ [ (None, count None) ]

(* Histories of up to 12 switches, oldest first, over ticks 0..60 (so
   several share a tick and some fall before [from] or past [until]), to
   owners 0..4 or idle, against 0 to 3 listed partitions (so some owners
   are missing from the list). *)
let occupancy_case_gen =
  QCheck.Gen.(
    let* times = list_size (int_range 0 12) (int_range 0 60) in
    let* owners =
      list_repeat (List.length times) (opt ~ratio:0.8 (int_range 0 4))
    in
    let* listed = int_range 0 3 in
    let* from = int_range 0 50 in
    let* span = int_range 0 60 in
    return
      ( List.combine (List.sort compare times) owners,
        listed,
        from,
        from + span ))

let print_occupancy_case (switches, listed, from, until) =
  Printf.sprintf "switches=[%s] partitions=%d from=%d until=%d"
    (String.concat "; "
       (List.map
          (fun (t, o) ->
            Printf.sprintf "%d:%s" t
              (match o with None -> "idle" | Some i -> string_of_int i))
          switches))
    listed from until

let occupancy_matches_per_tick_model =
  QCheck.Test.make ~name:"vitral: occupancy equals the per-tick model"
    ~count:500
    (QCheck.make ~print:print_occupancy_case occupancy_case_gen)
    (fun (switches, listed, from, until) ->
      let switches =
        List.map
          (fun (t, o) -> (t, Option.map Ident.Partition_id.make o))
          switches
      in
      let partitions = List.init listed Ident.Partition_id.make in
      let plain =
        List.map (fun (o, n) -> (Option.map Ident.Partition_id.index o, n))
      in
      plain (Air_vitral.Gantt.occupancy ~partitions ~from ~until switches)
      = plain (occupancy_model ~partitions ~from ~until switches))

let gantt_schedule_chart_mentions_windows () =
  let chart = Air_vitral.Gantt.of_schedule Air_workload.Satellite.schedule_1 in
  check Alcotest.bool "has P1 row" true (Astring_contains.contains chart "P1");
  check Alcotest.bool "lists windows" true
    (Astring_contains.contains chart "O=400");
  check Alcotest.bool "mtf" true (Astring_contains.contains chart "MTF=1300")

let console_routing () =
  let p0 = Ident.Partition_id.make 0 and p1 = Ident.Partition_id.make 1 in
  let console =
    Air_vitral.Console.create ~window_width:40
      ~partitions:[ (p0, "ALPHA"); (p1, "BETA") ]
      ()
  in
  Air_vitral.Console.feed console 5
    (Event.Application_output { partition = p0; line = "hello alpha" });
  Air_vitral.Console.feed console 7
    (Event.Application_output { partition = p1; line = "hello beta" });
  Air_vitral.Console.feed console 9
    (Event.Schedule_switch
       { from = Ident.Schedule_id.make 0; to_ = Ident.Schedule_id.make 1 });
  Air_vitral.Console.feed console 11
    (Event.Deadline_violation
       { process = Ident.Process_id.make p0 0; deadline = 10 });
  (* Window-less events are dropped silently. *)
  Air_vitral.Console.feed console 12
    (Event.Port_send { port = "X"; bytes = 1 });
  let rendered = Air_vitral.Console.render console in
  check Alcotest.bool "alpha line" true
    (Astring_contains.contains rendered "hello alpha");
  check Alcotest.bool "beta line" true
    (Astring_contains.contains rendered "hello beta");
  check Alcotest.bool "pmk window" true
    (Astring_contains.contains rendered "schedule-switch");
  check Alcotest.bool "hm window" true
    (Astring_contains.contains rendered "DEADLINE VIOLATION")

let suite =
  [ Alcotest.test_case "mission: schedules valid" `Quick
      mission_schedules_valid;
    Alcotest.test_case "mission: phases shift processor shares" `Quick
      mission_runs_through_phases;
    Alcotest.test_case "mission: change action fires" `Quick
      mission_change_action_fires;
    qcheck taskgen_properties;
    Alcotest.test_case "taskgen: synthesizable" `Quick taskgen_synthesizable;
    Alcotest.test_case "taskgen: babbling variant" `Quick taskgen_babbling;
    Alcotest.test_case "vitral: window rendering" `Quick window_rendering;
    Alcotest.test_case "vitral: grid layout" `Quick window_grid;
    Alcotest.test_case "vitral: occupancy reconstruction" `Quick
      gantt_occupancy_reconstruction;
    qcheck occupancy_matches_per_tick_model;
    Alcotest.test_case "vitral: schedule chart" `Quick
      gantt_schedule_chart_mentions_windows;
    Alcotest.test_case "vitral: console routing" `Quick console_routing ]
