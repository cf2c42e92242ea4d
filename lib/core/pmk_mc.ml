open Air_model

type t = {
  cores : Pmk.t array;
  mutable outs : Pmk.tick_outcome array;
      (* Reused per-core outcome buffer: [tick] refills it in place after
         the first call, so a steady-state multicore tick allocates
         nothing. Each slot aliases the core's own reused record. *)
  actives : Ident.Partition_id.t option array;
      (* Reused buffer for [active_partitions]; refilled on every call
         (idempotent between ticks). *)
}

let create ?metrics ?recorder ?telemetry ?initial_schedule ~partition_count
    tables =
  if tables = [] then invalid_arg "Pmk_mc.create: no schedules";
  List.iter
    (fun (mc : Multicore.t) ->
      match Multicore.validate mc with
      | [] -> ()
      | d :: _ ->
        invalid_arg
          (Format.asprintf "Pmk_mc.create: invalid table: %a"
             Multicore.pp_diagnostic d))
    tables;
  let core_counts =
    List.map (fun (mc : Multicore.t) -> Multicore.core_count mc) tables
  in
  let cores_n = List.hd core_counts in
  if List.exists (fun n -> n <> cores_n) core_counts then
    invalid_arg "Pmk_mc.create: tables disagree on core count";
  (* Cross-core window allotment, indexed by schedule id then partition:
     a partition's telemetry grant is the sum of its windows over every
     lane, not just the frame owner's. *)
  let allotment =
    let n = List.length tables in
    let by_id = Array.make n [||] in
    List.iter
      (fun (mc : Multicore.t) ->
        let totals = Array.make partition_count 0 in
        Array.iter
          (List.iter (fun (w : Schedule.window) ->
               let p = Ident.Partition_id.index w.partition in
               totals.(p) <- totals.(p) + w.duration))
          mc.Multicore.cores;
        by_id.(Ident.Schedule_id.index mc.Multicore.id) <- totals)
      tables;
    by_id
  in
  let cores =
    (* Observation convention: metrics follow lane 0 (the primary lane),
       except the module's context-switch count, a view of every lane's
       events; the recorder is shared by every lane — each tags its
       partition-window spans with its lane index as the sub-lane, and
       only the frame owner records module-track schedule-switch instants.
       The telemetry accumulator is shared by all lanes for
       dispatch-jitter samples and lane 0 owns frame close. *)
    Array.init cores_n (fun core ->
        Pmk.create
          ?metrics:(if core = 0 then metrics else None)
          ?recorder ?telemetry ~frame_owner:(core = 0) ~lane:core
          ~window_allotment:allotment ?initial_schedule
          ~partition_count
          (List.map (fun mc -> Multicore.core_view mc ~core) tables))
  in
  { cores; outs = [||]; actives = Array.make cores_n None }

let of_pmk pmk = { cores = [| pmk |]; outs = [||]; actives = [| None |] }
let core_count t = Array.length t.cores
let ticks t = Pmk.ticks t.cores.(0)
let current_schedule t = Pmk.current_schedule t.cores.(0)
let next_schedule t = Pmk.next_schedule t.cores.(0)
let last_schedule_switch t = Pmk.last_schedule_switch t.cores.(0)

let request_schedule_switch t id =
  (* Broadcast; every core holds the same schedule set, so the outcomes
     coincide — report the first core's. *)
  let results =
    Array.map (fun pmk -> Pmk.request_schedule_switch pmk id) t.cores
  in
  results.(0)

let tick t =
  (* First tick allocates the buffer (each slot aliases the core's reused
     outcome record); thereafter Pmk.tick rewrites those records in place
     and the refill below only restores the aliases. *)
  if Array.length t.outs = 0 then t.outs <- Array.map Pmk.tick t.cores
  else
    for i = 0 to Array.length t.cores - 1 do
      t.outs.(i) <- Pmk.tick t.cores.(i)
    done;
  t.outs

let active_partitions t =
  for i = 0 to Array.length t.cores - 1 do
    t.actives.(i) <- Pmk.active_partition t.cores.(i)
  done;
  t.actives

(* Sharded tables keep partitions mutually exclusive in time (validated
   no-self-overlap plus non-overlapping source windows), so at most one
   lane is busy; should several be, lane order breaks the tie. The scans
   are top-level loops, not local closures, so the executive's per-tick
   occupancy sample stays allocation-free. *)
let rec first_active actives n i =
  if i >= n then None
  else
    match actives.(i) with
    | Some _ as p -> p
    | None -> first_active actives n (i + 1)

let combined_active t =
  let actives = active_partitions t in
  first_active actives (Array.length actives) 0

let rec find_lane actives pid n i =
  if i >= n then None
  else
    match actives.(i) with
    | Some p when Ident.Partition_id.equal p pid -> Some i
    | Some _ | None -> find_lane actives pid n (i + 1)

let active_lane_of t pid =
  let actives = active_partitions t in
  find_lane actives pid (Array.length actives) 0

let next_preemption_tick t =
  Array.fold_left
    (fun acc pmk -> Int.min acc (Pmk.next_preemption_tick pmk))
    Air_sim.Time.infinity t.cores

let skip t ~ticks = Array.iter (fun pmk -> Pmk.skip pmk ~ticks) t.cores

let core t i =
  if i < 0 || i >= core_count t then invalid_arg "Pmk_mc.core: out of range";
  t.cores.(i)
