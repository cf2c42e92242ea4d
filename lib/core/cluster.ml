open Air_sim

type link = {
  from_module : int;
  from_port : string;
  to_module : int;
  to_port : string;
  link_latency : Time.t option;
}

let link ?latency ~from_module ~from_port ~to_module ~to_port () =
  { from_module; from_port; to_module; to_port; link_latency = latency }

type bus = { latency : Time.t; bytes_per_tick : int }

let default_bus = { latency = 4; bytes_per_tick = 16 }

type transfer = {
  arrival : Time.t;
  seq : int;
      (* Serialization order on the bus. Ties the heap order down among
         equal arrival instants, so pops — and therefore every delivery
         and fault-injection victim — are reproducible from the send
         sequence alone (the parallel fleet engine replays sends in the
         sequential order and relies on this). *)
  target_module : int;
  target_port : Air_ipc.Router.port;
  payload : bytes;
  cid : Air_obs.Causal.id;
      (* Correlation id stamped at the originating write; rides the bus so
         the receive in the target module closes the cross-module flow. *)
}

type t = {
  modules : System.t array;
  links : link array;
  gateways : Air_ipc.Router.port array;
      (* By link: the gateway's ID in the source module's router. *)
  ingresses : Air_ipc.Router.port array;
      (* By link: the ingress's ID in the target module's router. *)
  bus : bus;
  in_flight : transfer Heap.t;
  mutable next_seq : int;
  mutable clock : Time.t;
  mutable bus_busy_until : Time.t;
  mutable transferred : int;
  mutable dropped : int;
  mutable last_perturbed : Air_obs.Causal.id list;
      (* Flows touched by the most recent [inject_bus_fault] — campaign
         reports annotate outcomes with them. *)
}

let transfer_cmp a b =
  match Time.compare a.arrival b.arrival with
  | 0 -> Stdlib.compare a.seq b.seq
  | c -> c

let create ?(bus = default_bus) ~links modules =
  if modules = [] then invalid_arg "Cluster.create: no modules";
  if bus.latency < 0 || bus.bytes_per_tick <= 0 then
    invalid_arg "Cluster.create: bad bus parameters";
  let n = List.length modules in
  List.iter
    (fun l ->
      if
        l.from_module < 0 || l.from_module >= n || l.to_module < 0
        || l.to_module >= n
      then invalid_arg "Cluster.create: link module index out of range";
      match l.link_latency with
      | Some d when d < 0 ->
        invalid_arg "Cluster.create: negative link latency"
      | Some _ | None -> ())
    links;
  (* A gateway feeds exactly one link: the drain is destructive, so two
     links sharing a gateway would race for its messages. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let key = (l.from_module, l.from_port) in
      if Hashtbl.mem seen key then
        invalid_arg "Cluster.create: gateway port used by more than one link"
      else Hashtbl.add seen key ())
    links;
  let modules = Array.of_list modules in
  (* Bind each link's ports once. A gateway must be a queuing destination
     (the drain pops a queue) and an ingress a destination port, or the
     link would run dead. *)
  let bind ~role ~what ~fits m name =
    let router = System.router modules.(m) in
    let id = Air_ipc.Router.resolve router name in
    if id < 0 || not (fits (Air_ipc.Router.port_config router id)) then
      invalid_arg
        (Printf.sprintf
           "Cluster.create: link %s %s is not a %s port of module %d" role
           name what m);
    id
  in
  let destination (c : Air_ipc.Port.config) =
    Air_ipc.Port.direction_equal c.direction Air_ipc.Port.Destination
  in
  let queuing_destination (c : Air_ipc.Port.config) =
    destination c
    && match c.kind with
       | Air_ipc.Port.Queuing _ -> true
       | Air_ipc.Port.Sampling _ -> false
  in
  let links = Array.of_list links in
  let gateways =
    Array.map
      (fun l ->
        bind ~role:"gateway" ~what:"queuing destination"
          ~fits:queuing_destination l.from_module l.from_port)
      links
  in
  let ingresses =
    Array.map
      (fun l ->
        bind ~role:"ingress" ~what:"destination" ~fits:destination
          l.to_module l.to_port)
      links
  in
  (* Home each module's flow tracker: the module field of every id it
     stamps from now on is the module's cluster index, making ids (and
     Chrome flow-event ids) unique cluster-wide. *)
  Array.iteri
    (fun i m ->
      match System.causal m with
      | Some c -> Air_obs.Causal.set_module_id c i
      | None -> ())
    modules;
  { modules;
    links;
    gateways;
    ingresses;
    bus;
    in_flight = Heap.create ~cmp:transfer_cmp;
    next_seq = 0;
    clock = 0;
    bus_busy_until = 0;
    transferred = 0;
    dropped = 0;
    last_perturbed = [] }

let links t = Array.copy t.links
let gateways t = Array.copy t.gateways

let effective_latency t l =
  match l.link_latency with Some d -> d | None -> t.bus.latency

(* The shortest propagation delay of any link: a message drained onto the
   bus at clock [c] cannot arrive before [c + lookahead], which is the
   safe horizon the parallel fleet engine advances modules by between
   barriers. Infinite without links (nothing ever crosses). *)
let lookahead t =
  Array.fold_left
    (fun acc l -> Time.min acc (effective_latency t l))
    Time.infinity t.links

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Serialize a message onto the bus as of instant [at]: it occupies the
   medium for its transmission time after any transfer already under way,
   and arrives a propagation delay later. *)
let send_on_bus t ~at ~latency ~target_module ~target_port ~cid payload =
  let transmission =
    (Bytes.length payload + t.bus.bytes_per_tick - 1) / t.bus.bytes_per_tick
  in
  let start = Time.max at t.bus_busy_until in
  let done_transmitting = Time.add start transmission in
  t.bus_busy_until <- done_transmitting;
  Heap.push t.in_flight
    { arrival = Time.add done_transmitting latency;
      seq = fresh_seq t;
      target_module;
      target_port;
      payload;
      cid }

let drain_gateway t i l =
  let source = t.modules.(l.from_module) in
  let rec pump () =
    match System.drain_remote source ~port:t.gateways.(i) with
    | None -> ()
    | Some (payload, cid) ->
      send_on_bus t ~at:t.clock ~latency:(effective_latency t l)
        ~target_module:l.to_module ~target_port:t.ingresses.(i) ~cid payload;
      pump ()
  in
  pump ()

let drain_gateways t = Array.iteri (drain_gateway t) t.links

let deliver_transfer t tr =
  match
    System.deliver_remote ~cid:tr.cid t.modules.(tr.target_module)
      ~port:tr.target_port tr.payload
  with
  | Ok () -> t.transferred <- t.transferred + 1
  | Error _ -> t.dropped <- t.dropped + 1

let deliver_arrivals t =
  let rec go () =
    match Heap.peek t.in_flight with
    | Some tr when Time.(tr.arrival <= t.clock) ->
      (match Heap.pop t.in_flight with
      | None -> assert false
      | Some tr -> deliver_transfer t tr);
      go ()
    | Some _ | None -> ()
  in
  go ()

let step t =
  Array.iter System.step t.modules;
  t.clock <- t.clock + 1;
  drain_gateways t;
  deliver_arrivals t

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

let now t = t.clock

let systems t = t.modules

(* --- Fleet engine primitives -------------------------------------------- *)

let set_clock t clock = t.clock <- clock

let send_via t ~at ~link ~cid payload =
  let l = t.links.(link) in
  send_on_bus t ~at ~latency:(effective_latency t l)
    ~target_module:l.to_module ~target_port:t.ingresses.(link) ~cid payload

let take_due t ~upto =
  let rec go acc =
    match Heap.peek t.in_flight with
    | Some tr when Time.(tr.arrival <= upto) ->
      ignore (Heap.pop t.in_flight);
      go (tr :: acc)
    | Some _ | None -> List.rev acc
  in
  go []

let next_arrival t =
  match Heap.peek t.in_flight with
  | Some tr -> tr.arrival
  | None -> Time.infinity

let account t ~transferred ~dropped =
  t.transferred <- t.transferred + transferred;
  t.dropped <- t.dropped + dropped

let in_flight_transfers t = Heap.to_sorted_list t.in_flight

let flow_entries t =
  List.concat_map System.flow_entries (Array.to_list t.modules)

(* Merged Chrome trace of the whole cluster: each module's tracks are
   shifted by a common stride so they render as distinct process groups,
   and the per-module causal records merge into one flow-event set —
   the ids already embed the origin module, so a send in module 0 and
   its receive in module 1 share the id and the viewer draws the arrow
   across the process boundary. *)
let chrome_trace t =
  let stride =
    1
    + Array.fold_left
        (fun acc m -> Int.max acc (System.partition_count m))
        0 t.modules
  in
  let parts =
    List.mapi
      (fun i m ->
        System.chrome_parts ~shift:(i * stride)
          ~prefix:(Printf.sprintf "m%d:" i) m)
      (Array.to_list t.modules)
  in
  let all field = List.concat_map field parts in
  let meta =
    let tbl = Hashtbl.create 4 in
    Array.iter
      (fun m ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k
              (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          (System.export_meta m))
      t.modules;
    List.sort Stdlib.compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Air_obs.Trace_export.to_chrome
    ~tracks:(all (fun p -> p.System.chrome_tracks))
    ~events:(all (fun p -> p.System.chrome_events))
    ~flows:(all (fun p -> p.System.chrome_flows))
    ~meta
    (all (fun p -> p.System.chrome_spans))

(* --- Fault injection on inter-module links ------------------------------ *)

type bus_fault =
  | Bus_drop
  | Bus_duplicate
  | Bus_delay of Time.t
  | Bus_corrupt of { byte : int }
  | Bus_reorder

(* Record the fault against the struck transfer's flow. The record lands
   in the target module's tracker (the module that will miss, re-see or
   mis-read the message); the id itself still names the origin. *)
let note_bus_perturb t tr what =
  if Air_obs.Causal.is_some tr.cid then begin
    System.note_flow_perturb t.modules.(tr.target_module) ~what tr.cid;
    t.last_perturbed <- tr.cid :: t.last_perturbed
  end

let inject_bus_fault t fault =
  t.last_perturbed <- [];
  match Heap.pop t.in_flight with
  | None -> false
  | Some tr ->
    (match fault with
    | Bus_reorder -> (
      (* Swap the arrival instants of the two earliest transfers, so the
         second overtakes the first on the medium. *)
      match Heap.pop t.in_flight with
      | None -> Heap.push t.in_flight tr
      | Some next ->
        note_bus_perturb t tr Air_obs.Causal.Bus_reorder;
        note_bus_perturb t next Air_obs.Causal.Bus_reorder;
        Heap.push t.in_flight { tr with arrival = next.arrival };
        Heap.push t.in_flight { next with arrival = tr.arrival })
    | Bus_drop ->
      (* The transfer vanishes on the medium; account it as dropped so the
         cluster's conservation story stays balanced. *)
      note_bus_perturb t tr Air_obs.Causal.Bus_drop;
      t.dropped <- t.dropped + 1
    | Bus_duplicate ->
      note_bus_perturb t tr Air_obs.Causal.Bus_duplicate;
      Heap.push t.in_flight tr;
      (* The copy keeps the id — the same logical message, twice on the
         wire — but serializes after the original (fresh seq), so heap
         order stays total and runs stay reproducible. *)
      Heap.push t.in_flight
        { tr with payload = Bytes.copy tr.payload; seq = fresh_seq t }
    | Bus_delay d ->
      note_bus_perturb t tr Air_obs.Causal.Bus_delay;
      Heap.push t.in_flight
        { tr with arrival = Time.add tr.arrival (Time.max 0 d) }
    | Bus_corrupt { byte } ->
      note_bus_perturb t tr Air_obs.Causal.Bus_corrupt;
      let len = Bytes.length tr.payload in
      if len > 0 then begin
        let i = ((byte mod len) + len) mod len in
        Bytes.set tr.payload i
          (Char.chr (Char.code (Bytes.get tr.payload i) lxor 0xff))
      end;
      Heap.push t.in_flight tr);
    true

let last_perturbed t = t.last_perturbed

type stats = {
  transferred : int;
  dropped : int;
  in_flight : int;
  bus_busy_until : Time.t;
}

let stats (t : t) =
  { transferred = t.transferred;
    dropped = t.dropped;
    in_flight = Heap.length t.in_flight;
    bus_busy_until = t.bus_busy_until }
