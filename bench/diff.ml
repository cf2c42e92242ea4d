(* Compare two air-bench/1 JSON artifacts (as written by
   `bench/main.exe --json`) and flag regressions.

   Usage: diff.exe OLD.json NEW.json

   Every row present in both files is compared by its ns/run estimate;
   a row counts as a regression when it is slower than its group's
   threshold ratio AND slower by more than an absolute noise floor (very
   short rows jitter by whole nanoseconds between runs). Rows present in
   only one file — renamed, added or retired benchmarks — are reported
   but never fatal, and rows whose OLS estimate was null are skipped.

   Exit status: 0 when no row regresses, 1 on regression, 2 on usage or
   parse errors. *)

(* --- thresholds ---------------------------------------------------------- *)

(* Per-group regression ratios (new/old). The micro groups measure rows
   in the 1–100 ns range where allocator and cache placement move results
   by tens of percent between otherwise identical runs; the whole-horizon
   groups are longer and steadier, so they get a tighter bound. *)
let threshold_for name =
  let group =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match group with
  | "scheduler" | "deadline" | "pal" | "ipc" | "mmu" | "causal"
  | "contention" -> 2.0
  | "system" | "recorder" | "telemetry" -> 1.75
  | "exec" | "faults" | "analysis" | "extensions" | "profiler" -> 1.5
  (* Whole-horizon rows, but the domain rows contend for whatever cores
     the CI runner actually has, so they jitter more than exec/*. *)
  | "fleet" -> 2.0
  | _ -> 1.5

(* Absolute slack in ns/run below which a slowdown is indistinguishable
   from scheduling noise regardless of the ratio. *)
let noise_floor_ns = 10.0

(* --- air-bench/1 rows ------------------------------------------------------ *)

exception Malformed of string

(* The [(name, ns_per_run)] rows of an air-bench/1 artifact, in file
   order. A row whose OLS estimate was null has nothing to compare and is
   left out; a file that does not parse, or is not an air-bench/1
   artifact, raises [Malformed]. *)
let parse_rows path =
  let bad fmt =
    Printf.ksprintf (fun m -> raise (Malformed (path ^ ": " ^ m))) fmt
  in
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc =
    match Json_lint.parse text with
    | Ok doc -> doc
    | Error e -> bad "invalid JSON: %s" e
  in
  let read conv v key = Option.bind (Json_lint.get [ key ] v) conv in
  if read Json_lint.string doc "schema" <> Some "air-bench/1" then
    bad "not an air-bench/1 artifact";
  let row v =
    match (read Json_lint.string v "name", Json_lint.get [ "ns_per_run" ] v) with
    | Some _, Some Json_lint.Null -> None
    | Some name, Some est -> (
      match Json_lint.float est with
      | Some ns -> Some (name, ns)
      | None -> bad "row %s: ns_per_run is not a number" name)
    | _ -> bad "a result row lacks its name or ns_per_run"
  in
  match read Json_lint.list doc "results" with
  | Some rows -> List.filter_map row rows
  | None -> bad "no results array"

(* --- comparison ---------------------------------------------------------- *)

type verdict = { name : string; old_ns : float; new_ns : float; ratio : float }

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ ->
      prerr_endline "usage: diff.exe OLD.json NEW.json";
      exit 2
  in
  let old_rows, new_rows =
    try (parse_rows old_path, parse_rows new_path)
    with Sys_error msg | Malformed msg ->
      prerr_endline msg;
      exit 2
  in
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (name, est) -> Hashtbl.replace old_tbl name est) old_rows;
  let regressions = ref [] in
  let improvements = ref 0 in
  let compared = ref 0 in
  let added = ref [] in
  List.iter
    (fun (name, new_ns) ->
      match Hashtbl.find_opt old_tbl name with
      | None -> added := name :: !added
      | Some old_ns ->
        Hashtbl.remove old_tbl name;
        incr compared;
        let ratio = if old_ns > 0.0 then new_ns /. old_ns else 1.0 in
        let threshold = threshold_for name in
        if ratio > threshold && new_ns -. old_ns > noise_floor_ns then
          regressions := { name; old_ns; new_ns; ratio } :: !regressions
        else if ratio < 1.0 /. threshold then incr improvements)
    new_rows;
  let removed = Hashtbl.fold (fun name _ acc -> name :: acc) old_tbl [] in
  List.iter
    (fun { name; old_ns; new_ns; ratio } ->
      Printf.printf "REGRESSION  %-52s %10.1f -> %10.1f ns/run (%.2fx > %.2fx)\n"
        name old_ns new_ns ratio (threshold_for name))
    (List.rev !regressions);
  List.iter (fun name -> Printf.printf "new row     %s\n" name)
    (List.rev !added);
  List.iter (fun name -> Printf.printf "retired row %s\n" name)
    (List.sort compare removed);
  Printf.printf
    "bench-diff: %d rows compared, %d regression(s), %d improvement(s), %d new, %d retired\n"
    !compared
    (List.length !regressions)
    !improvements (List.length !added) (List.length removed);
  if !regressions <> [] then exit 1
