(* Standalone validator for the fault-smoke make target: given two
   campaign-report JSON files `air_run --campaign-json` produced from the
   SAME seeded document, check that each is well-formed air-campaign/1
   JSON whose campaigns were all reproducible and contained, and that the
   two exports are byte-identical — the seeded-reproducibility acceptance
   criterion, enforced outside the test harness. Exits nonzero on the
   first problem. *)

open Smoke

let check_report path =
  let text = read_file path in
  let report = parse path text in
  schema path report "air-campaign/1";
  let campaigns = field path Json_lint.list report [ "campaigns" ] in
  if campaigns = [] then fail "%s: no campaigns in report" path;
  let count pred = List.length (List.filter pred campaigns) in
  let n = List.length campaigns in
  (* A report carries [deterministic] only when reproducibility was
     checked; an absent field counts as not reproducible. *)
  let deterministic =
    count (fun c ->
        Option.bind (Json_lint.get [ "deterministic" ] c) Json_lint.bool
        = Some true)
  in
  if deterministic <> n then
    fail "%s: %d of %d campaigns reproducible" path deterministic n;
  let contained =
    count (fun c ->
        field path Json_lint.string c [ "containment"; "verdict" ]
        = "contained")
  in
  if contained <> n then
    fail "%s: %d of %d campaigns contained" path contained n;
  (text, n)

let () =
  match Sys.argv with
  | [| _; first; second |] ->
    let a, campaigns = check_report first in
    let b, _ = check_report second in
    if not (String.equal a b) then
      fail "%s and %s differ: same seed must give identical reports" first
        second;
    Printf.printf
      "fault smoke OK: %d campaigns contained, reruns byte-identical\n"
      campaigns
  | _ -> fail "usage: %s REPORT_A.json REPORT_B.json" Sys.argv.(0)
