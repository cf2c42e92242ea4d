open Air_sim
open Air_model.Ident

type direction = Source | Destination

let direction_equal a b =
  match (a, b) with
  | Source, Source | Destination, Destination -> true
  | (Source | Destination), _ -> false

let pp_direction ppf d =
  Format.pp_print_string ppf
    (match d with Source -> "source" | Destination -> "destination")

type kind = Sampling of { refresh : Time.t } | Queuing of { depth : int }

type config = {
  name : Port_name.t;
  partition : Partition_id.t;
  direction : direction;
  kind : kind;
  max_message_size : int;
}

let check_size max_message_size =
  if max_message_size <= 0 then
    invalid_arg "Port: max_message_size must be positive"

let sampling_port ~name ~partition ~direction ~refresh ~max_message_size =
  check_size max_message_size;
  if refresh <= 0 then invalid_arg "Port: refresh must be positive";
  { name; partition; direction; kind = Sampling { refresh };
    max_message_size }

let queuing_port ~name ~partition ~direction ~depth ~max_message_size =
  check_size max_message_size;
  if depth <= 0 then invalid_arg "Port: depth must be positive";
  { name; partition; direction; kind = Queuing { depth }; max_message_size }

type channel = { source : Port_name.t; destinations : Port_name.t list }

type network = { ports : config list; channels : channel list }

let same_mode a b =
  match (a, b) with
  | Sampling _, Sampling _ | Queuing _, Queuing _ -> true
  | (Sampling _ | Queuing _), _ -> false

let validate net =
  let diags = ref [] in
  let push fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  let find name =
    List.find_opt (fun p -> Port_name.equal p.name name) net.ports
  in
  (* Duplicate port names. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.name then push "duplicate port name %s" p.name
      else Hashtbl.add seen p.name ())
    net.ports;
  (* Channel endpoint checks. *)
  let sources = Hashtbl.create 16 and dests = Hashtbl.create 16 in
  List.iter
    (fun ch ->
      (if Hashtbl.mem sources ch.source then
         push "source port %s feeds more than one channel" ch.source
       else Hashtbl.add sources ch.source ());
      if ch.destinations = [] then
        push "channel from %s has no destinations" ch.source;
      match find ch.source with
      | None -> push "channel names unknown source port %s" ch.source
      | Some src ->
        if not (direction_equal src.direction Source) then
          push "port %s used as channel source but declared %a" src.name
            pp_direction src.direction;
        (* ARINC 653: only sampling channels may fan out; a queuing channel
           connects exactly one source to exactly one destination. *)
        (match src.kind with
        | Queuing _ when List.length ch.destinations > 1 ->
          push
            "queuing channel from %s has %d destinations; queuing channels \
             are strictly 1:1"
            ch.source
            (List.length ch.destinations)
        | Queuing _ | Sampling _ -> ());
        List.iter
          (fun dname ->
            (if Hashtbl.mem dests dname then
               push "destination port %s fed by more than one channel" dname
             else Hashtbl.add dests dname ());
            match find dname with
            | None -> push "channel names unknown destination port %s" dname
            | Some dst ->
              if not (direction_equal dst.direction Destination) then
                push "port %s used as channel destination but declared %a"
                  dst.name pp_direction dst.direction;
              if not (same_mode src.kind dst.kind) then
                push "channel %s → %s mixes sampling and queuing ports"
                  src.name dst.name;
              if dst.max_message_size < src.max_message_size then
                push
                  "destination %s max size %d smaller than source %s max \
                   size %d"
                  dst.name dst.max_message_size src.name
                  src.max_message_size)
          ch.destinations)
    net.channels;
  List.rev !diags
