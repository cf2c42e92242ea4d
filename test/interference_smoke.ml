(* Standalone validator for the interference-smoke make target: load an
   (air-system ...) document carrying a (contention ...) model, shard it
   over two lanes, replay the shipped bus-hog scenario (two mid-MTF
   bandwidth bursts against the named partition), and check the
   interference story end to end:

   - the telemetry JSON export is well-formed, carries the schema marker
     and the interference columns, and every frame is interference-marked;
   - throttled ticks show up in the telemetry — and on a partition other
     than the hog (cross-lane slowdown, not self-inflicted);
   - the health monitor fires temporal degradation exactly once per
     offending frame (a frame where some partition's demand exceeds its
     budget), never more, never less.

   Exits nonzero on the first problem. *)

open Air_model
open Smoke

(* The shipped bus-hog campaign: bursts worth 150% of the hog's per-window
   budget at ticks 1550 and 9550 of a 20000-tick horizon. One extra tick
   closes the final telemetry frame (boundary ticks close the previous
   frame at the start of the next step). *)
let horizon = 20_000
let bursts = [ 1_550; 9_550 ]
let permille = 1_500

let load path =
  match Air_config.Loader.load_file path with
  | Ok cfg -> cfg
  | Error m -> fail "%s: %s" path m

let hog_id cfg name =
  let rec find = function
    | [] -> fail "no partition named %s in the document" name
    | s :: rest ->
      if String.equal s.Air.System.partition.Partition.name name then
        s.Air.System.partition.Partition.id
      else find rest
  in
  find cfg.Air.System.partitions

let () =
  let path, hog_name =
    match Sys.argv with
    | [| _; path; hog |] -> (path, hog)
    | _ -> fail "usage: %s CONFIG.air HOG_PARTITION" Sys.argv.(0)
  in
  let cfg = load path in
  if cfg.Air.System.contention = None then
    fail "%s: no (contention ...) section; smoke proves nothing" path;
  let cfg =
    { cfg with
      Air.System.cores = Some 2;
      Air.System.telemetry =
        (match cfg.Air.System.telemetry with
        | Some t -> Some t
        | None -> Some Air_obs.Telemetry.default_config) }
  in
  let hog = hog_id cfg hog_name in
  let hog_index = Ident.Partition_id.index hog in
  let system = Air.System.create cfg in
  let cursor = ref 0 in
  let run_to t =
    Air.System.run system ~ticks:(t - !cursor);
    cursor := t
  in
  List.iter
    (fun at ->
      run_to at;
      match Air.System.inject_bandwidth_hog system hog ~permille with
      | Some cost when cost > 0 -> ()
      | Some _ | None -> fail "burst at %d charged nothing" at)
    bursts;
  run_to (horizon + 1);

  (* Telemetry artifact. *)
  let frames = Air.System.telemetry_frames system in
  if frames = [] then fail "no telemetry frames closed in %d ticks" horizon;
  let what = "telemetry export" in
  let json = parse what (Air_obs.Telemetry.to_json frames) in
  schema what json Air_obs.Telemetry.schema;
  List.iter
    (fun frame ->
      List.iter
        (fun pf -> ignore (field what Json_lint.int pf [ "throttled" ]))
        (field what Json_lint.list frame [ "partitions" ]))
    (field what Json_lint.list json [ "frames" ]);
  List.iter
    (fun f ->
      if not f.Air_obs.Telemetry.f_interference then
        fail "frame %d not interference-marked" f.Air_obs.Telemetry.f_index)
    frames;

  (* Cross-lane slowdown: some partition other than the hog throttled. *)
  let victim_throttled, offending, last_stop =
    List.fold_left
      (fun (thr, off, _) f ->
        let thr = ref thr and off = ref off in
        Array.iteri
          (fun i pf ->
            if i <> hog_index then
              thr := !thr + pf.Air_obs.Telemetry.pf_throttled;
            if
              pf.Air_obs.Telemetry.pf_mem_demand
              > pf.Air_obs.Telemetry.pf_mem_budget
            then incr off)
          f.Air_obs.Telemetry.f_partitions;
        (!thr, !off, f.Air_obs.Telemetry.f_stop))
      (0, 0, 0) frames
  in
  if victim_throttled = 0 then
    fail "no victim throttled: the slowdown curve never engaged";
  if offending = 0 then fail "no offending frame: the bursts never blew";

  (* Exactly one HM temporal-degradation per offending frame. Events in
     the still-open window past the last closed frame are excluded, same
     as the frames they would be counted against. *)
  let degradations =
    List.length
      (List.filter
         (fun (t, ev) ->
           t < last_stop
           &&
           match ev with
           | Event.Hm_error { code = Error.Temporal_degradation; _ } ->
             true
           | _ -> false)
         (Air_sim.Trace.to_list (Air.System.trace system)))
  in
  if degradations <> offending then
    fail "HM fired %d times for %d offending frames" degradations offending;
  Printf.printf
    "interference smoke OK: %d frames, %d offending, %d degradations, %d \
     victim throttled ticks\n"
    (List.length frames) offending degradations victim_throttled
