(* Paired end-to-end runs of two checkouts of this repository.

   Usage: pair.exe [--workload NAME] [--pairs N] [--seed K] BASE_DIR
            CHANGE_DIR

   Each directory is a checkout whose bench/e2e/e2e.exe is already built
   (`make bench-pair` builds both). Pair i runs `e2e.exe --workload NAME
   --seed K --seconds S --trace 0` once in each checkout, the base first
   when i is odd and the change first when i is even, so a drift of the
   machine's speed weighs on both sides alike. S is the `run_seconds` of
   CHANGE_DIR/BENCHMARK.json: the benchmark sets the run length, the same
   on both sides. The last line of a run's standard output is its result
   object (bench/e2e/README.md).

   For every end-to-end metric that CHANGE_DIR/BENCHMARK.json declares,
   the tool prints each side's median and quartiles, the ratio of the
   medians and in how many pairs the change was better in the metric's
   direction (a tie counts for neither side), then each side's attempted
   and failed operation totals. Without --workload it pairs every workload
   BENCHMARK.json lists, in turn, with one summary each.

   Exit status: 0 when every run's result reads "correct": true, 1 when
   one does not or a run printed no result line, 2 on usage errors. *)

type metric = { name : string; unit : string; higher_is_better : bool }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let usage =
  "pair.exe [--workload NAME] [--pairs N] [--seed K] BASE_DIR CHANGE_DIR"

(* --- BENCHMARK.json and result lines ------------------------------------ *)

(* The run length, the end-to-end metrics and the workloads' names. *)
let benchmark dir =
  let path = Filename.concat dir "BENCHMARK.json" in
  let doc = Smoke.parse path (Smoke.read_file path) in
  let text v key = Smoke.field path Json_lint.string v [ key ] in
  let metrics =
    List.map
      (fun m ->
        { name = text m "name";
          unit = text m "unit";
          higher_is_better = String.equal (text m "better") "higher" })
      (Smoke.field path Json_lint.list doc [ "end_to_end" ])
  in
  ( Smoke.field path Json_lint.float doc [ "run_seconds" ],
    metrics,
    List.map
      (fun w -> text w "name")
      (Smoke.field path Json_lint.list doc [ "workloads" ]) )

let last_line text =
  match
    List.rev
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' text))
  with
  | l :: _ -> l
  | [] -> ""

let read_result what metrics line =
  let v = Smoke.parse what line in
  let field conv path = Smoke.field what conv v path in
  { correct = field Json_lint.bool [ "correct" ];
    attempted = field Json_lint.int [ "attempted" ];
    failed = field Json_lint.int [ "failed" ];
    values =
      List.map
        (fun m ->
          (m.name, field Json_lint.float [ "metrics"; m.name; "value" ]))
        metrics }

(* --- One run ------------------------------------------------------------ *)

let status_text = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* e2e.exe finds its documents from the directory holding dune-project, so
   each side runs inside its own checkout; [dir] is absolute. *)
let run_e2e ~workload ~seconds ~seed metrics dir =
  let exe = Filename.concat dir "_build/default/bench/e2e/e2e.exe" in
  if not (Sys.file_exists exe) then
    Smoke.fail "bench-pair: %s is not built" exe;
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0" |]
  in
  let cwd = Sys.getcwd () in
  let ic =
    Sys.chdir dir;
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () -> Unix.open_process_args_in exe args)
  in
  let out = In_channel.input_all ic in
  (* Exit status 1 is a failed correctness check, which the result line
     reports; any other failure leaves no result. *)
  match (Unix.close_process_in ic, last_line out) with
  | Unix.WEXITED (0 | 1), line when line <> "" ->
    read_result (dir ^ ": result line") metrics line
  | status, _ ->
    Smoke.fail "bench-pair: %s printed no result (%s)" exe (status_text status)

(* --- Statistics --------------------------------------------------------- *)

(* Linear interpolation between the closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let h = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let value m r = List.assoc m.name r.values

let better m ~change ~base =
  if m.higher_is_better then change > base else change < base

(* --- Pairs -------------------------------------------------------------- *)

(* [pairs] alternating pairs of one workload and their summary; whether
   every run read "correct": true. *)
let pair_workload ~workload ~pairs ~seed ~seconds metrics base_dir change_dir
    =
  let run dir = run_e2e ~workload ~seconds ~seed metrics dir in
  Printf.printf "bench-pair: %s, %d pairs of %g s runs, seed %d\n%!" workload
    pairs seconds seed;
  let results =
    List.init pairs (fun i ->
        let base_first = i mod 2 = 0 in
        let base, change =
          if base_first then
            let base = run base_dir in
            (base, run change_dir)
          else
            let change = run change_dir in
            (run base_dir, change)
        in
        Printf.printf "pair %d/%d (%s first), base -> change:" (i + 1) pairs
          (if base_first then "base" else "change");
        List.iter
          (fun m ->
            Printf.printf " %s %.4g -> %.4g" m.name (value m base)
              (value m change))
          metrics;
        Printf.printf "\n%!";
        (base, change))
  in
  let side f = List.map f results in
  Printf.printf "\n%-12s %-8s %34s %34s %6s %5s\n" "metric" "unit"
    "base median [Q1, Q3]" "change median [Q1, Q3]" "ratio" "wins";
  let summary xs =
    Printf.sprintf "%.4g [%.4g, %.4g]" (quantile 0.5 xs) (quantile 0.25 xs)
      (quantile 0.75 xs)
  in
  List.iter
    (fun m ->
      let base = side (fun (b, _) -> value m b) in
      let change = side (fun (_, c) -> value m c) in
      let wins =
        List.length
          (List.filter
             (fun (b, c) -> better m ~change:(value m c) ~base:(value m b))
             results)
      in
      Printf.printf "%-12s %-8s %34s %34s %6.3f %2d/%d\n" m.name m.unit
        (summary base) (summary change)
        (quantile 0.5 change /. quantile 0.5 base)
        wins pairs)
    metrics;
  let totals f =
    let sum g = List.fold_left (fun acc r -> acc + g r) 0 (side f) in
    (sum (fun r -> r.attempted), sum (fun r -> r.failed))
  in
  let base_attempted, base_failed = totals fst in
  let change_attempted, change_failed = totals snd in
  Printf.printf
    "operations: base %d attempted, %d failed; change %d attempted, %d failed\n"
    base_attempted base_failed change_attempted change_failed;
  let incorrect =
    List.length
      (List.filter (fun (b, c) -> not (b.correct && c.correct)) results)
  in
  if incorrect > 0 then
    Printf.printf
      "bench-pair: %s: %d pair(s) with a run not \"correct\": true\n"
      workload incorrect;
  incorrect = 0

let () =
  let workload = ref "" and pairs = ref 10 and seed = ref 1 and dirs = ref [] in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME  one workload (default: every one)" );
      ("--pairs", Arg.Set_int pairs, "N  pairs of runs (default 10)");
      ("--seed", Arg.Set_int seed, "K  each run's --seed (default 1)") ]
    (fun d -> dirs := !dirs @ [ d ])
    usage;
  let absolute d =
    if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d
  in
  let base_dir, change_dir =
    match !dirs with
    | [ b; c ] when !pairs > 0 -> (absolute b, absolute c)
    | _ ->
      prerr_endline ("usage: " ^ usage);
      exit 2
  in
  let seconds, metrics, workloads = benchmark change_dir in
  let workloads = if !workload = "" then workloads else [ !workload ] in
  let correct =
    List.map
      (fun workload ->
        let ok =
          pair_workload ~workload ~pairs:!pairs ~seed:!seed ~seconds metrics
            base_dir change_dir
        in
        print_newline ();
        ok)
      workloads
  in
  if not (List.for_all Fun.id correct) then exit 1
