open Air_sim
open Air_model
open Ident

type failure =
  | Overcommitted of { utilization : float }
  | No_room of { partition : Partition_id.t; cycle_index : int }
  | Bad_requirement of string

let pp_failure ppf = function
  | Overcommitted { utilization } ->
    Format.fprintf ppf "requirements overcommitted: Σ d/η = %.3f > 1"
      utilization
  | No_room { partition; cycle_index } ->
    Format.fprintf ppf "no room for %a in its cycle k=%d" Partition_id.pp
      partition cycle_index
  | Bad_requirement msg -> Format.fprintf ppf "bad requirement: %s" msg

let synthesize ?(id = Schedule_id.make 0) ?mtf requirements =
  let ( let* ) = Result.bind in
  let* () =
    if requirements = [] then Error (Bad_requirement "empty requirement set")
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (r : Schedule.requirement) ->
        let* () = acc in
        if r.cycle <= 0 then
          Error (Bad_requirement "non-positive cycle")
        else if r.duration < 0 then
          Error (Bad_requirement "negative duration")
        else if Time.(r.cycle < r.duration) then
          Error (Bad_requirement "duration exceeds cycle")
        else Ok ())
      (Ok ()) requirements
  in
  let utilization =
    List.fold_left
      (fun acc (r : Schedule.requirement) ->
        acc +. (float_of_int r.duration /. float_of_int r.cycle))
      0.0 requirements
  in
  let* () =
    if utilization > 1.0 +. 1e-9 then Error (Overcommitted { utilization })
    else Ok ()
  in
  let lcm =
    Time.lcm_list (List.map (fun (r : Schedule.requirement) -> r.cycle) requirements)
  in
  let mtf =
    match mtf with
    | None -> lcm
    | Some m -> if m mod lcm = 0 then m else lcm * ((m / lcm) + 1)
  in
  (* Earliest-fit over a tick-granular timeline: busy.(t) marks ticks
     already granted. Partitions with smaller cycles are placed first. *)
  let busy = Array.make mtf false in
  let sorted =
    List.stable_sort
      (fun (a : Schedule.requirement) (b : Schedule.requirement) ->
        Time.compare a.cycle b.cycle)
      requirements
  in
  let windows = ref [] in
  let place (r : Schedule.requirement) =
    let rec cycles k =
      if k >= mtf / r.cycle then Ok ()
      else begin
        let lo = k * r.cycle and hi = (k + 1) * r.cycle in
        (* Collect free ticks into maximal runs until the duration is
           covered. *)
        let remaining = ref r.duration in
        let cursor = ref lo in
        while !remaining > 0 && !cursor < hi do
          if busy.(!cursor) then incr cursor
          else begin
            let start = !cursor in
            while !cursor < hi && (not busy.(!cursor)) && !remaining > 0 do
              busy.(!cursor) <- true;
              decr remaining;
              incr cursor
            done;
            windows :=
              { Schedule.partition = r.partition;
                offset = start;
                duration = !cursor - start }
              :: !windows
          end
        done;
        if !remaining > 0 then
          Error (No_room { partition = r.partition; cycle_index = k })
        else cycles (k + 1)
      end
    in
    cycles 0
  in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        place r)
      (Ok ()) sorted
  in
  Ok (Schedule.make ~id ~name:"synthesized" ~mtf ~requirements !windows)

let synthesize_harmonic requirements =
  let cycles = List.map (fun (r : Schedule.requirement) -> r.cycle) requirements in
  match List.sort Time.compare cycles with
  | [] -> Error (Bad_requirement "empty requirement set")
  | _ :: _ as sorted ->
    let largest = List.nth sorted (List.length sorted - 1) in
    if List.for_all (fun c -> c > 0 && largest mod c = 0) sorted then
      synthesize requirements
    else Error (Bad_requirement "cycles are not harmonic")
