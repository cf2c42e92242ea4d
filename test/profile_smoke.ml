(* Standalone validator for the profile-smoke make target: given a
   profile JSON file `air_run --profile-json` produced, check that it is
   well-formed air-profile/1 JSON, that the step/batch/skip tick buckets
   partition the simulated horizon exactly, that the horizon matches the
   tick budget the smoke run requested, and that probe accounting is
   consistent (total = successful + wasted). Exits nonzero on the first
   problem. *)

open Smoke

let () =
  let path, expected_ticks =
    match Sys.argv with
    | [| _; path |] -> (path, None)
    | [| _; path; ticks |] -> (path, Some (int_of_string ticks))
    | _ -> fail "usage: %s PROFILE.json [EXPECTED_TICKS]" Sys.argv.(0)
  in
  let profile = parse path (read_file path) in
  schema path profile "air-profile/1";
  let int = field path Json_lint.int profile in
  let simulated = int [ "simulated" ] in
  (match expected_ticks with
  | Some t when t <> simulated ->
    fail "%s: simulated %d ticks, run requested %d" path simulated t
  | _ -> ());
  let step = int [ "buckets"; "step"; "ticks" ] in
  let batch = int [ "buckets"; "batch"; "ticks" ] in
  let skip = int [ "buckets"; "skip"; "ticks" ] in
  if step + batch + skip <> simulated then
    fail "%s: buckets %d+%d+%d = %d do not partition simulated %d" path step
      batch skip (step + batch + skip) simulated;
  let total = int [ "probes"; "total" ] in
  let successful = int [ "probes"; "successful" ] in
  let wasted = int [ "probes"; "wasted" ] in
  if successful + wasted <> total then
    fail "%s: probes %d+%d do not sum to total %d" path successful wasted
      total;
  if int [ "density"; "samples" ] < 0 then
    fail "%s: negative density sample count" path;
  Printf.printf
    "profile smoke OK: %d ticks = %d stepped + %d batched + %d skipped, \
     %d probes\n"
    simulated step batch skip total
