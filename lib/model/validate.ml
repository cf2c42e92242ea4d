open Air_sim
open Ident

type diagnostic =
  | Empty_requirements of { schedule : Schedule_id.t }
  | Duplicate_requirement of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
    }
  | Nonpositive_cycle of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle : Time.t;
    }
  | Duration_exceeds_cycle of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      duration : Time.t;
      cycle : Time.t;
    }
  | Window_overlap of {
      schedule : Schedule_id.t;
      first : Schedule.window;
      second : Schedule.window;
    }
  | Window_exceeds_mtf of {
      schedule : Schedule_id.t;
      window : Schedule.window;
      mtf : Time.t;
    }
  | Window_for_unknown_partition of {
      schedule : Schedule_id.t;
      window : Schedule.window;
    }
  | Mtf_not_multiple_of_lcm of {
      schedule : Schedule_id.t;
      mtf : Time.t;
      lcm : Time.t;
    }
  | Cycle_not_dividing_mtf of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle : Time.t;
      mtf : Time.t;
    }
  | Insufficient_cycle_duration of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle_index : int;
      provided : Time.t;
      required : Time.t;
    }
  | Duplicate_schedule_id of { id : Schedule_id.t }
  | Empty_schedule_set

let pp_diagnostic ppf = function
  | Empty_requirements { schedule } ->
    Format.fprintf ppf "%a: Q is empty" Schedule_id.pp schedule
  | Duplicate_requirement { schedule; partition } ->
    Format.fprintf ppf "%a: duplicate requirement for %a" Schedule_id.pp
      schedule Partition_id.pp partition
  | Nonpositive_cycle { schedule; partition; cycle } ->
    Format.fprintf ppf "%a: %a has non-positive cycle η=%a" Schedule_id.pp
      schedule Partition_id.pp partition Time.pp cycle
  | Duration_exceeds_cycle { schedule; partition; duration; cycle } ->
    Format.fprintf ppf "%a: %a has duration d=%a exceeding cycle η=%a"
      Schedule_id.pp schedule Partition_id.pp partition Time.pp duration
      Time.pp cycle
  | Window_overlap { schedule; first; second } ->
    Format.fprintf ppf "%a: eq.(21) violated — window %a intersects %a"
      Schedule_id.pp schedule Schedule.pp_window first Schedule.pp_window
      second
  | Window_exceeds_mtf { schedule; window; mtf } ->
    Format.fprintf ppf
      "%a: eq.(21) violated — window %a extends beyond MTF=%a"
      Schedule_id.pp schedule Schedule.pp_window window Time.pp mtf
  | Window_for_unknown_partition { schedule; window } ->
    Format.fprintf ppf
      "%a: eq.(20) violated — window %a for a partition outside Q"
      Schedule_id.pp schedule Schedule.pp_window window
  | Mtf_not_multiple_of_lcm { schedule; mtf; lcm } ->
    Format.fprintf ppf
      "%a: eq.(22) violated — MTF=%a is not a multiple of lcm(η)=%a"
      Schedule_id.pp schedule Time.pp mtf Time.pp lcm
  | Cycle_not_dividing_mtf { schedule; partition; cycle; mtf } ->
    Format.fprintf ppf "%a: cycle η=%a of %a does not divide MTF=%a"
      Schedule_id.pp schedule Time.pp cycle Partition_id.pp partition Time.pp
      mtf
  | Insufficient_cycle_duration
      { schedule; partition; cycle_index; provided; required } ->
    Format.fprintf ppf
      "%a: eq.(23) violated — %a gets %a < d=%a in cycle k=%d"
      Schedule_id.pp schedule Partition_id.pp partition Time.pp provided
      Time.pp required cycle_index
  | Duplicate_schedule_id { id } ->
    Format.fprintf ppf "duplicate schedule identifier %a" Schedule_id.pp id
  | Empty_schedule_set -> Format.pp_print_string ppf "χ is empty"

let requirement_exn (s : Schedule.t) pid =
  match Schedule.requirement_for s pid with
  | Some r -> r
  | None ->
    invalid_arg
      (Format.asprintf "Validate: %a has no requirement in %a"
         Partition_id.pp pid Schedule_id.pp s.Schedule.id)

let cycle_supply (s : Schedule.t) pid ~k =
  let r = requirement_exn s pid in
  let lo = k * r.Schedule.cycle and hi = (k + 1) * r.Schedule.cycle in
  List.fold_left
    (fun acc (w : Schedule.window) ->
      if
        Partition_id.equal w.partition pid
        && Time.(lo <= w.offset)
        && Time.(w.offset < hi)
      then Time.add acc w.duration
      else acc)
    Time.zero s.Schedule.windows

let check_requirements (s : Schedule.t) =
  let id = s.Schedule.id in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  if s.Schedule.requirements = [] then push (Empty_requirements { schedule = id });
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Schedule.requirement) ->
      let key = Partition_id.index r.partition in
      if Hashtbl.mem seen key then
        push (Duplicate_requirement { schedule = id; partition = r.partition })
      else Hashtbl.add seen key ();
      if r.cycle <= 0 then
        push
          (Nonpositive_cycle
             { schedule = id; partition = r.partition; cycle = r.cycle })
      else if Time.(r.cycle < r.duration) then
        push
          (Duration_exceeds_cycle
             { schedule = id;
               partition = r.partition;
               duration = r.duration;
               cycle = r.cycle }))
    s.Schedule.requirements;
  List.rev !diags

let check_windows (s : Schedule.t) =
  let id = s.Schedule.id in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let in_q (w : Schedule.window) =
    List.exists
      (fun (r : Schedule.requirement) ->
        Partition_id.equal r.partition w.partition)
      s.Schedule.requirements
  in
  let rec walk = function
    | [] -> ()
    | [ (w : Schedule.window) ] ->
      if Time.(s.Schedule.mtf < Time.add w.offset w.duration) then
        push (Window_exceeds_mtf { schedule = id; window = w; mtf = s.mtf })
    | (w1 : Schedule.window) :: (w2 : Schedule.window) :: rest ->
      if Time.(w2.offset < Time.add w1.offset w1.duration) then
        push (Window_overlap { schedule = id; first = w1; second = w2 });
      walk (w2 :: rest)
  in
  walk s.Schedule.windows;
  List.iter
    (fun w ->
      if not (in_q w) then
        push (Window_for_unknown_partition { schedule = id; window = w }))
    s.Schedule.windows;
  List.rev !diags

let check_mtf (s : Schedule.t) =
  let id = s.Schedule.id in
  let cycles =
    List.filter_map
      (fun (r : Schedule.requirement) ->
        if r.cycle > 0 then Some r.cycle else None)
      s.Schedule.requirements
  in
  match cycles with
  | [] -> []
  | _ ->
    let lcm = Time.lcm_list cycles in
    if s.Schedule.mtf mod lcm <> 0 then
      [ Mtf_not_multiple_of_lcm { schedule = id; mtf = s.mtf; lcm } ]
    else []

let check_cycle_durations (s : Schedule.t) =
  let id = s.Schedule.id in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  List.iter
    (fun (r : Schedule.requirement) ->
      if r.Schedule.cycle > 0 && r.Schedule.duration > 0 then
        if s.Schedule.mtf mod r.cycle <> 0 then
          push
            (Cycle_not_dividing_mtf
               { schedule = id;
                 partition = r.partition;
                 cycle = r.cycle;
                 mtf = s.mtf })
        else
          for k = 0 to (s.Schedule.mtf / r.cycle) - 1 do
            let provided = cycle_supply s r.partition ~k in
            if Time.(provided < r.duration) then
              push
                (Insufficient_cycle_duration
                   { schedule = id;
                     partition = r.partition;
                     cycle_index = k;
                     provided;
                     required = r.duration })
          done)
    s.Schedule.requirements;
  List.rev !diags

let validate s =
  check_requirements s @ check_windows s @ check_mtf s
  @ check_cycle_durations s

let validate_set schedules =
  let set_diags =
    if schedules = [] then [ Empty_schedule_set ]
    else begin
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun (s : Schedule.t) ->
          let key = Schedule_id.index s.id in
          if Hashtbl.mem seen key then
            Some (Duplicate_schedule_id { id = s.id })
          else begin
            Hashtbl.add seen key ();
            None
          end)
        schedules
    end
  in
  set_diags @ List.concat_map validate schedules

let explain_requirement ppf (s : Schedule.t) pid ~k =
  let r = requirement_exn s pid in
  let lo = k * r.Schedule.cycle and hi = (k + 1) * r.Schedule.cycle in
  let windows =
    List.filter
      (fun (w : Schedule.window) ->
        Partition_id.equal w.partition pid
        && Time.(lo <= w.offset)
        && Time.(w.offset < hi))
      s.Schedule.windows
  in
  let provided = cycle_supply s pid ~k in
  Format.fprintf ppf
    "@[<v>Σ c over {ω ∈ ω_%d | P^ω = %a ∧ O ∈ [%a; %a)} ≥ d = %a@,"
    (Schedule_id.index s.id + 1)
    Partition_id.pp pid Time.pp lo Time.pp hi Time.pp r.duration;
  Format.fprintf ppf "  windows: {%a}@,"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Schedule.pp_window)
    windows;
  Format.fprintf ppf "  %a ≥ %a — %s@]" Time.pp provided Time.pp r.duration
    (if Time.(r.duration <= provided) then "holds" else "VIOLATED")
