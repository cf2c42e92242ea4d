(* Standalone validator for the fleet-smoke make target: load an
   (air-fleet ...) document, advance one copy sequentially through
   [Air.Cluster.run] and three more through the parallel engine at 1, 2
   and 4 domains, and require all four observations ([Air.Observe]) to
   be byte-identical — the bit-identity acceptance criterion, enforced
   outside the test harness on the shipped constellation document; a
   divergence names the first section that differs. Also
   lints the engine's stats JSON, and requires the one-domain run to need
   fewer than [ticks / (2 L)] windows: windows end at the earliest
   possible send, not every lookahead [L]. Exits nonzero on the first
   problem. *)

open Smoke
module Fleet = Air_fleet.Fleet

let load path =
  match Air_config.Loader.load_fleet_file path with
  | Ok fleet -> fleet.Air_config.Loader.fleet_cluster
  | Error m -> fail "%s: %s" path m

let parallel path ~domains ~ticks =
  let cluster = load path in
  let fleet = Fleet.create ~domains cluster in
  Fleet.run fleet ~ticks;
  Fleet.close fleet;
  let windows = Air_obs.Fleet_stats.windows (Fleet.stats fleet) in
  let lookahead = Air.Cluster.lookahead cluster in
  if domains = 1 && windows >= ticks / (2 * lookahead) then
    fail "1-domain fleet needed %d windows for %d ticks (lookahead %d): \
          windows no longer end at the earliest possible send"
      windows ticks lookahead;
  let what = Printf.sprintf "fleet stats (%d domains)" domains in
  schema what
    (parse what (Air_obs.Fleet_stats.to_json (Fleet.stats fleet)))
    "air-fleet-stats/1";
  Air.Observe.cluster cluster

let () =
  let path, ticks =
    match Sys.argv with
    | [| _; path; ticks |] -> (
      match int_of_string_opt ticks with
      | Some t when t > 0 -> (path, t)
      | _ -> fail "TICKS must be a positive integer, got %S" ticks)
    | _ -> fail "usage: %s FLEET.air TICKS" Sys.argv.(0)
  in
  let reference = load path in
  Air.Cluster.run reference ~ticks;
  let stats = Air.Cluster.stats reference in
  if stats.Air.Cluster.transferred = 0 then
    fail "%s: no inter-module traffic in %d ticks; smoke proves nothing" path
      ticks;
  let sequential = Air.Observe.cluster reference in
  List.iter
    (fun domains ->
      Option.iter
        (fail "%d-domain fleet diverged from the sequential run: %s differs"
           domains)
        (Air.Observe.first_difference sequential
           (parallel path ~domains ~ticks)))
    [ 1; 2; 4 ];
  Printf.printf
    "fleet smoke OK: %d ticks, %d transfers, 1-, 2- and 4-domain runs \
     bit-identical to sequential (%s)\n"
    ticks stats.Air.Cluster.transferred (Air.Observe.digest sequential)
