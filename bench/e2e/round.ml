(* One timed round of a workload, and the reference run its fingerprints
   are checked against. Both run in a child process of their own (see
   e2e.ml), so every round starts from a fresh heap. *)

open Air
open Workload

type t = {
  op_seconds : float array;  (** One per chunk, or per campaign. *)
  module_ticks : int;  (** Simulated module-ticks over all operations. *)
  failed : int;  (** Campaigns not contained or not reproducible. *)
  fingerprint : string option;  (** The module workloads' final state. *)
  peak_rss_kb : int;  (** Read before fingerprinting. *)
}

let timed_ops n f = Array.init n (fun i -> snd (time (fun () -> f i)))

let modules ?bare w =
  let sys = System.create (module_config ?bare w) in
  let engine = Air_exec.Engine.create sys in
  let chunk = ticks_per_chunk w in
  let op_seconds =
    timed_ops (ops_per_round w) (fun _ ->
        Air_exec.Engine.advance engine ~ticks:chunk)
  in
  let peak_rss_kb = peak_rss_kb () in
  { op_seconds;
    module_ticks = horizon w;
    failed = 0;
    fingerprint = Some (fingerprint sys);
    peak_rss_kb }

let fleet () =
  let cluster = constellation () in
  let fleet = Air_fleet.Fleet.create ~domains:1 cluster in
  let chunk = ticks_per_chunk Constellation in
  let op_seconds =
    timed_ops (ops_per_round Constellation) (fun _ ->
        Air_fleet.Fleet.run fleet ~ticks:chunk)
  in
  Air_fleet.Fleet.close fleet;
  let peak_rss_kb = peak_rss_kb () in
  { op_seconds;
    module_ticks =
      horizon Constellation * Array.length (Cluster.systems cluster);
    failed = 0;
    fingerprint = Some (Air_fleet.Fleet.fingerprint cluster);
    peak_rss_kb }

(* Each campaign the way `air_run --faults` runs it: execute through the
   skip-ahead executive, judge containment, then check reproducibility. *)
let campaign_ok ~make spec =
  match Air_faults.Engine.execute ~turbo:true ~make spec with
  | run ->
    Air_faults.Oracle.passed (Air_faults.Oracle.check run)
    && Air_faults.Engine.reproducible ~turbo:true ~make spec
  | exception _ -> false

let leo_target () =
  let path = leo_path () in
  fun () ->
    Air_faults.Engine.Module
      (System.create (ok path (Air_config.Loader.load_file path)))

let sweep ~seed ~round =
  let specs = campaigns () in
  let make = leo_target () in
  let failed = ref 0 and module_ticks = ref 0 in
  let op_seconds =
    timed_ops (ops_per_round Campaign_sweep) (fun i ->
        let spec = campaign specs ~seed ~round i in
        module_ticks := !module_ticks + campaign_module_ticks spec;
        if not (campaign_ok ~make spec) then incr failed)
  in
  { op_seconds;
    module_ticks = !module_ticks;
    failed = !failed;
    fingerprint = None;
    peak_rss_kb = peak_rss_kb () }

let run ?bare w ~seed ~round =
  match w with
  | Leo | Leo_observed -> modules ?bare w
  | Constellation -> fleet ()
  | Campaign_sweep -> sweep ~seed ~round

(* The reference: the same horizon per tick (modules) or through the
   sequential cluster (constellation). Returns its fingerprint and wall
   time. Campaigns carry their own reference (reproducibility). *)
let reference w =
  match w with
  | Leo | Leo_observed ->
    let sys = System.create (module_config w) in
    let engine = Air_exec.Engine.create ~mode:Air_exec.Engine.Per_tick sys in
    let (), wall =
      time (fun () -> Air_exec.Engine.advance engine ~ticks:(horizon w))
    in
    (fingerprint sys, wall)
  | Constellation ->
    let cluster = constellation () in
    let (), wall = time (fun () -> Cluster.run cluster ~ticks:(horizon w)) in
    (Air_fleet.Fleet.fingerprint cluster, wall)
  | Campaign_sweep -> invalid_arg "Round.reference: campaigns check themselves"
