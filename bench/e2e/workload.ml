(* The end-to-end workloads: the shipped documents, built and advanced only
   through the library's public entry points.

   - leo: leo_satellite.air as shipped on the adaptive engine. One lane, so
     the PMK, PAL and POS layers do the most per-tick work of any workload.
   - leo-observed-2core: the same document on two Pmk_mc lanes with the
     slowdown curve armed and every observability sink attached (bounded
     span recorder and causal tracker, plus the document's telemetry).
   - constellation: constellation.air (12 modules) through a one-domain
     Fleet. Dominated by skip-ahead, gateway IPC and the fleet's windows;
     almost no PMK work.
   - campaign-sweep: the three campaigns of leo_satellite.air, re-seeded
     from the benchmark seed, each run as `air_run --faults` runs it. The
     only workload that exercises the config loader per operation, the
     fault hooks, the MMU fault path and the oracle. *)

open Air

type t = Leo | Leo_observed | Constellation | Campaign_sweep

let all =
  [ ("leo", Leo);
    ("leo-observed-2core", Leo_observed);
    ("constellation", Constellation);
    ("campaign-sweep", Campaign_sweep) ]

let of_name name = List.assoc_opt name all

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Documents resolve from the directory holding dune-project, so the
   harness reads the shipped files wherever it is started below it. *)
let document file =
  let rec root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then
        failwith "no dune-project in the current directory or above"
      else root parent
  in
  let path =
    List.fold_left Filename.concat (root (Sys.getcwd ()))
      [ "examples"; "configs"; file ]
  in
  if Sys.file_exists path then path else failwith (path ^ ": no such document")

let leo_path () = document "leo_satellite.air"

(* [bare] drops the span recorder and causal tracker, to price them. *)
let module_config ?(bare = false) w =
  let cfg =
    ok "leo_satellite.air" (Air_config.Loader.load_file (leo_path ()))
  in
  match w with
  | Leo_observed when bare -> { cfg with System.cores = Some 2 }
  | Leo_observed ->
    { cfg with
      System.cores = Some 2;
      recorder = Some (Air_obs.Span.create ~capacity:4096 ());
      causal = Some (Air_obs.Causal.create ~capacity:4096 ()) }
  | Leo | Constellation | Campaign_sweep -> cfg

let constellation () =
  (ok "constellation.air"
     (Air_config.Loader.load_fleet_file (document "constellation.air")))
    .Air_config.Loader.fleet_cluster

let node_config () =
  ok "constellation_node.air"
    (Air_config.Loader.load_file (document "constellation_node.air"))

let campaigns () =
  let path = leo_path () in
  match ok path (Air_config.Loader.load_campaigns_file path) with
  | [] -> failwith (path ^ ": no campaigns")
  | specs -> Array.of_list specs

(* The document a workload's layers are replayed against. *)
let layer_config = function
  | Constellation -> node_config ()
  | w -> module_config w

(* Operations per round: chunks of 100 MTFs (leo's MTF is 2000 ticks, a
   constellation node's 100), or whole campaigns. A chunk this long
   carries its share of major-GC work, so the median chunk prices the
   collector too; at 10 MTFs most chunks see no major slice. *)
let ops_per_round = function
  | Leo -> 100
  | Leo_observed -> 50
  | Constellation -> 100
  | Campaign_sweep -> 120

let ticks_per_chunk = function
  | Leo | Leo_observed -> 200_000
  | Constellation -> 10_000
  | Campaign_sweep -> 0

let horizon w = ops_per_round w * ticks_per_chunk w

(* Campaign [i] of round [round]: the shipped specs in turn, each with a
   seed derived from the benchmark seed. *)
let campaign specs ~seed ~round i =
  let spec = specs.(i mod Array.length specs) in
  { spec with Air_faults.Campaign.seed = Hashtbl.hash (seed, round, i) }

(* Module-ticks one campaign simulates: target and baseline, then the two
   executions of the reproducibility check. *)
let campaign_module_ticks spec = 6 * spec.Air_faults.Campaign.horizon

(* The set-up a user pays before the first tick. *)
let setup w =
  match w with
  | Leo | Leo_observed -> ignore (System.create (module_config w))
  | Constellation ->
    Air_fleet.Fleet.close (Air_fleet.Fleet.create ~domains:1 (constellation ()))
  | Campaign_sweep ->
    ignore (campaigns ());
    ignore (System.create (module_config w))

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Everything observable about a finished module: trace, counters, modes,
   telemetry and flows (through a one-module cluster), the metrics JSON
   and the recorder's spans. Equal fingerprints mean identical runs. *)
let fingerprint sys =
  let spans =
    List.map (Format.asprintf "%a" Air_obs.Span.pp_span) (System.spans sys)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Air_fleet.Fleet.fingerprint_text (Cluster.create ~links:[] [ sys ])
          :: System.metrics_json sys :: spans)))

let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "/proc/self/status: no VmHWM"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | Some _ -> scan ()
      in
      scan ())
