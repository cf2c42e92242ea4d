(* Causal correlation ids: int-packed origin coordinates + sequence,
   recorded into a preallocated ring of mutable cells so stamping and
   hop recording never allocate. *)

type id = int

let none = 0

let seq_bits = 32
let port_bits = 10
let partition_bits = 8
let module_bits = 8

let seq_mask = (1 lsl seq_bits) - 1
let port_mask = (1 lsl port_bits) - 1
let partition_mask = (1 lsl partition_bits) - 1
let module_mask = (1 lsl module_bits) - 1

let port_shift = seq_bits
let partition_shift = port_shift + port_bits
let module_shift = partition_shift + partition_bits
let valid_bit = 1 lsl (module_shift + module_bits)

let pack ~module_id ~partition ~port ~seq =
  valid_bit
  lor ((module_id land module_mask) lsl module_shift)
  lor ((partition land partition_mask) lsl partition_shift)
  lor ((port land port_mask) lsl port_shift)
  lor (seq land seq_mask)

let is_some id = id <> none
let module_of id = (id lsr module_shift) land module_mask
let partition_of id = (id lsr partition_shift) land partition_mask
let port_of id = (id lsr port_shift) land port_mask
let seq_of id = id land seq_mask
let flow_of id = id land lnot seq_mask

let to_string id =
  if id = none then "-"
  else
    Printf.sprintf "m%d.p%d.q%d#%d" (module_of id) (partition_of id)
      (port_of id) (seq_of id)

let flow_to_string id =
  if id = none then "-"
  else Printf.sprintf "m%d.p%d.q%d" (module_of id) (partition_of id)
    (port_of id)

type perturbation =
  | Drop
  | Duplicate
  | Corrupt
  | Reorder
  | Delay
  | Bus_drop
  | Bus_duplicate
  | Bus_corrupt
  | Bus_reorder
  | Bus_delay

let perturbation_label = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Corrupt -> "corrupt"
  | Reorder -> "reorder"
  | Delay -> "delay"
  | Bus_drop -> "bus-drop"
  | Bus_duplicate -> "bus-duplicate"
  | Bus_corrupt -> "bus-corrupt"
  | Bus_reorder -> "bus-reorder"
  | Bus_delay -> "bus-delay"

type kind = Send | Receive | Forward | Perturb of perturbation

type entry = { kind : kind; id : id; time : int; track : int }

(* Cell kind codes: 0 send, 1 receive, 2 forward, 3 + perturbation. *)
let code_send = 0
let code_receive = 1
let code_forward = 2
let code_perturb = 3

let perturbation_code = function
  | Drop -> 0
  | Duplicate -> 1
  | Corrupt -> 2
  | Reorder -> 3
  | Delay -> 4
  | Bus_drop -> 5
  | Bus_duplicate -> 6
  | Bus_corrupt -> 7
  | Bus_reorder -> 8
  | Bus_delay -> 9

let perturbation_of_code = function
  | 0 -> Drop
  | 1 -> Duplicate
  | 2 -> Corrupt
  | 3 -> Reorder
  | 4 -> Delay
  | 5 -> Bus_drop
  | 6 -> Bus_duplicate
  | 7 -> Bus_corrupt
  | 8 -> Bus_reorder
  | _ -> Bus_delay

type cell = {
  mutable c_kind : int;
  mutable c_note : int;
  mutable c_id : int;
  mutable c_time : int;
  mutable c_track : int;
}

type t = {
  ring_capacity : int;
  cells : cell array;
  mutable origin : int;
  mutable seq : int;
  mutable len : int;
  mutable head : int;  (* next write position *)
  mutable total_recorded : int;
}

let create ?(capacity = 16384) ?(module_id = 0) () =
  if capacity <= 0 then invalid_arg "Causal.create: capacity must be positive";
  { ring_capacity = capacity;
    cells =
      Array.init capacity (fun _ ->
          { c_kind = 0; c_note = 0; c_id = 0; c_time = 0; c_track = 0 });
    origin = module_id land module_mask;
    seq = 0;
    len = 0;
    head = 0;
    total_recorded = 0 }

let set_module_id t m = t.origin <- m land module_mask
let module_id t = t.origin

let record t ~kind ~note ~id ~time ~track =
  let c = t.cells.(t.head) in
  c.c_kind <- kind;
  c.c_note <- note;
  c.c_id <- id;
  c.c_time <- time;
  c.c_track <- track;
  t.head <- t.head + 1;
  if t.head = t.ring_capacity then t.head <- 0;
  if t.len < t.ring_capacity then t.len <- t.len + 1;
  t.total_recorded <- t.total_recorded + 1

let stamp t ~now ~partition ~port =
  let seq = t.seq land seq_mask in
  t.seq <- t.seq + 1;
  let id = pack ~module_id:t.origin ~partition ~port ~seq in
  record t ~kind:code_send ~note:0 ~id ~time:now ~track:partition;
  id

let receive t ~now ~track id =
  if id <> none then
    record t ~kind:code_receive ~note:0 ~id ~time:now ~track

let forward t ~now id =
  if id <> none then
    record t ~kind:code_forward ~note:0 ~id ~time:now ~track:(-1)

let perturb t ~now ~what id =
  if id <> none then
    record t ~kind:code_perturb ~note:(perturbation_code what) ~id ~time:now
      ~track:(-1)

let entry_of_cell c =
  let kind =
    if c.c_kind = code_send then Send
    else if c.c_kind = code_receive then Receive
    else if c.c_kind = code_forward then Forward
    else Perturb (perturbation_of_code c.c_note)
  in
  { kind; id = c.c_id; time = c.c_time; track = c.c_track }

(* Oldest retained cell sits at [head - len] (mod capacity). *)
let entries t =
  let start = (t.head - t.len + t.ring_capacity) mod t.ring_capacity in
  List.init t.len (fun i ->
      entry_of_cell t.cells.((start + i) mod t.ring_capacity))

let last_perturbed t =
  let rec scan i =
    if i >= t.len then none
    else
      let idx = (t.head - 1 - i + (2 * t.ring_capacity)) mod t.ring_capacity in
      let c = t.cells.(idx) in
      if c.c_kind = code_perturb then c.c_id else scan (i + 1)
  in
  scan 0

let length t = t.len
let total t = t.total_recorded
let dropped t = t.total_recorded - t.len
let capacity t = t.ring_capacity
