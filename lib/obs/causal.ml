(* Causal correlation ids: int-packed origin coordinates + sequence,
   recorded into a [Ring] of flat int columns so stamping and hop
   recording never allocate. *)

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

(* Kind codes: 0 send, 1 receive, 2 forward, 3 + perturbation. *)
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

(* A hop is one slot of four ints: code, id, time, track. *)
let hop_ints = 4

type t = {
  hops : Ring.t;
  mutable origin : int;
  mutable seq : int;
}

let create ?(capacity = 16384) ?(module_id = 0) () =
  if capacity <= 0 then invalid_arg "Causal.create: capacity must be positive";
  { hops = Ring.create ~bound:capacity ~ints:hop_ints ~strings:0 ();
    origin = module_id land module_mask;
    seq = 0 }

let set_module_id t m = t.origin <- m land module_mask
let module_id t = t.origin

let record t ~code ~id ~time ~track =
  let i = Ring.push t.hops * hop_ints in
  let col = t.hops.int_col in
  col.(i) <- code;
  col.(i + 1) <- id;
  col.(i + 2) <- time;
  col.(i + 3) <- track

let stamp t ~now ~partition ~port =
  let seq = t.seq land seq_mask in
  t.seq <- t.seq + 1;
  let id = pack ~module_id:t.origin ~partition ~port ~seq in
  record t ~code:code_send ~id ~time:now ~track:partition;
  id

let receive t ~now ~track id =
  if id <> none then
    record t ~code:code_receive ~id ~time:now ~track

let forward t ~now id =
  if id <> none then
    record t ~code:code_forward ~id ~time:now ~track:(-1)

let perturb t ~now ~what id =
  if id <> none then
    record t ~code:(code_perturb + perturbation_code what) ~id ~time:now
      ~track:(-1)

(* The [n]-th oldest retained hop's first int. *)
let hop t n = Ring.slot t.hops n * hop_ints

let entries t =
  let col = t.hops.int_col in
  List.init (Ring.length t.hops) (fun n ->
      let i = hop t n in
      let code = col.(i) in
      let kind =
        if code = code_send then Send
        else if code = code_receive then Receive
        else if code = code_forward then Forward
        else Perturb (perturbation_of_code (code - code_perturb))
      in
      { kind; id = col.(i + 1); time = col.(i + 2); track = col.(i + 3) })

let last_perturbed t =
  let col = t.hops.int_col in
  let rec scan n =
    if n < 0 then none
    else
      let i = hop t n in
      if col.(i) >= code_perturb then col.(i + 1) else scan (n - 1)
  in
  scan (Ring.length t.hops - 1)

let length t = Ring.length t.hops
let total t = Ring.total t.hops
let dropped t = Ring.dropped t.hops
let capacity t = t.hops.bound
