open Air_sim
open Air_model
open Ident

(* Who owns each tick of [0, horizon) according to a context-switch
   history ((tick, owner) pairs, oldest first). *)
let owners_of_activity ~from ~until switches =
  let horizon = until - from in
  let owners = Array.make (Stdlib.max 0 horizon) None in
  let rec fill current = function
    | [] ->
      (* The last owner holds until the end of the interval. *)
      ()
    | (t, owner) :: rest ->
      let t = Stdlib.max t from in
      if t < until then begin
        ignore current;
        let stop =
          match rest with
          | (t', _) :: _ -> Stdlib.min until t'
          | [] -> until
        in
        for i = Stdlib.max t from to stop - 1 do
          if i >= from then owners.(i - from) <- owner
        done
      end;
      fill owner rest
  in
  (* Seed: owner before [from] is the last switch at or before it. *)
  let before, after =
    List.partition (fun (t, _) -> t <= from) switches
  in
  let initial =
    match List.rev before with (_, owner) :: _ -> owner | [] -> None
  in
  (match after with
  | (t0, _) :: _ ->
    for i = from to Stdlib.min until t0 - 1 do
      owners.(i - from) <- initial
    done
  | [] ->
    for i = from to until - 1 do
      owners.(i - from) <- initial
    done);
  fill initial after;
  owners

(* Each switch hands the processor to its owner until the next one; sum
   every such span, clipped to [\[from, until)], in one pass over the
   history — a long run's summary allocates nothing per tick. *)
let occupancy ~partitions ~from ~until switches =
  let held = Hashtbl.create 8 in
  let key = function None -> -1 | Some p -> Partition_id.index p in
  let ticks owner =
    Option.value ~default:0 (Hashtbl.find_opt held (key owner))
  in
  let credit owner lo hi =
    let lo = Stdlib.max lo from and hi = Stdlib.min hi until in
    if lo < hi then Hashtbl.replace held (key owner) (ticks owner + hi - lo)
  in
  let rec walk owner since = function
    | [] -> credit owner since until
    | (t, next) :: rest ->
      credit owner since t;
      walk next t rest
  in
  walk None from switches;
  List.map (fun p -> (Some p, ticks (Some p))) partitions
  @ [ (None, ticks None) ]

let render_rows ~width ~labels ~horizon cell_owner =
  let buf = Buffer.create 1024 in
  let ticks_per_cell =
    Stdlib.max 1 ((horizon + width - 1) / width)
  in
  let cells = (horizon + ticks_per_cell - 1) / ticks_per_cell in
  (* Ruler. *)
  Buffer.add_string buf (Printf.sprintf "%8s " "");
  for c = 0 to cells - 1 do
    Buffer.add_char buf (if c mod 10 = 0 then '|' else ' ')
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%8s " ("1c=" ^ string_of_int ticks_per_cell));
  for c = 0 to cells - 1 do
    if c mod 10 = 0 then
      Buffer.add_string buf
        (let s = string_of_int (c * ticks_per_cell) in
         String.sub s 0 (Stdlib.min (String.length s) 1))
    else Buffer.add_char buf ' '
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, matches) ->
      Buffer.add_string buf (Printf.sprintf "%8s " label);
      for c = 0 to cells - 1 do
        let lo = c * ticks_per_cell in
        let hi = Stdlib.min horizon (lo + ticks_per_cell) in
        let held = ref 0 in
        for tk = lo to hi - 1 do
          if matches (cell_owner tk) then incr held
        done;
        let span = hi - lo in
        Buffer.add_string buf
          (if !held = 0 then "·"
           else if 2 * !held >= span then "█"
           else "▒")
      done;
      Buffer.add_char buf '\n')
    labels;
  Buffer.contents buf

let of_schedule ?(width = 65) (s : Schedule.t) =
  let partitions = Schedule.partitions s in
  let owner tick =
    Option.map
      (fun (w : Schedule.window) -> w.partition)
      (Schedule.window_at s tick)
  in
  let labels =
    List.map
      (fun p ->
        ( Format.asprintf "%a" Partition_id.pp p,
          fun o ->
            match o with
            | Some q -> Partition_id.equal p q
            | None -> false ))
      partitions
  in
  let chart =
    render_rows ~width ~labels ~horizon:s.Schedule.mtf owner
  in
  let windows =
    String.concat "\n"
      (List.map
         (fun p ->
           Format.asprintf "  %a: %a" Partition_id.pp p
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
                Schedule.pp_window)
             (Schedule.windows_of s p))
         partitions)
  in
  Format.asprintf "%a %s — MTF=%a@.%s%s@." Schedule_id.pp s.Schedule.id
    s.Schedule.name Time.pp s.Schedule.mtf chart windows

let of_activity ?(width = 65) ~partitions ~from ~until switches =
  let owners = owners_of_activity ~from ~until switches in
  let owner tick = owners.(tick) in
  let labels =
    List.map
      (fun p ->
        ( Format.asprintf "%a" Partition_id.pp p,
          fun o ->
            match o with
            | Some q -> Partition_id.equal p q
            | None -> false ))
      partitions
    @ [ ("idle", fun o -> o = None) ]
  in
  render_rows ~width ~labels ~horizon:(until - from) owner
