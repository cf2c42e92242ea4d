(* Standalone validator for the telemetry-smoke make target: given the
   JSON and CSV artifacts `air_run --telemetry-json/--telemetry-csv`
   produced, check that the JSON is well-formed and carries the telemetry
   schema with at least one frame, and that every CSV row honours the
   header's column discipline. Exits nonzero on the first problem. *)

open Smoke

let check_json path =
  let telemetry = parse path (read_file path) in
  schema path telemetry Air_obs.Telemetry.schema;
  let frames =
    List.length (field path Json_lint.list telemetry [ "frames" ])
  in
  if frames = 0 then fail "%s: no frames exported" path;
  frames

let columns line =
  List.length (String.split_on_char ',' line)

let check_csv path =
  let lines =
    List.filter
      (fun l -> String.length l > 0)
      (String.split_on_char '\n' (read_file path))
  in
  match lines with
  | [] -> fail "%s: empty CSV" path
  | header :: rows ->
    (* Modules carrying a contention model append the interference
       columns; both shapes are valid. *)
    let interference_header =
      Air_obs.Telemetry.csv_header
      ^ Air_obs.Telemetry.csv_interference_columns
    in
    if
      (not (String.equal header Air_obs.Telemetry.csv_header))
      && not (String.equal header interference_header)
    then
      fail "%s: header mismatch:\n  got      %s\n  expected %s" path header
        interference_header;
    if rows = [] then fail "%s: no data rows" path;
    let width = columns header in
    List.iteri
      (fun i row ->
        if columns row <> width then
          fail "%s: row %d has %d columns, header has %d" path (i + 1)
            (columns row) width)
      rows;
    List.length rows

let () =
  match Sys.argv with
  | [| _; json; csv |] ->
    let frames = check_json json in
    let rows = check_csv csv in
    Printf.printf "telemetry smoke OK: %d frames (JSON), %d rows (CSV)\n"
      frames rows
  | _ ->
    fail "usage: %s TELEMETRY.json TELEMETRY.csv" Sys.argv.(0)
