open Air_sim
open Air_model.Ident

type error =
  | Unknown_port of Port_name.t
  | Not_owner of { port : Port_name.t; caller : Partition_id.t }
  | Wrong_direction of Port_name.t
  | Wrong_mode of Port_name.t
  | Message_too_large of { port : Port_name.t; size : int; max : int }
  | Empty_message

let pp_error ppf = function
  | Unknown_port p -> Format.fprintf ppf "unknown port %s" p
  | Not_owner { port; caller } ->
    Format.fprintf ppf "port %s not owned by %a" port Partition_id.pp caller
  | Wrong_direction p -> Format.fprintf ppf "wrong direction for port %s" p
  | Wrong_mode p -> Format.fprintf ppf "wrong transfer mode for port %s" p
  | Message_too_large { port; size; max } ->
    Format.fprintf ppf "message of %d bytes exceeds %s limit %d" size port max
  | Empty_message -> Format.pp_print_string ppf "empty message"

(* Buffered payloads carry the causal correlation id stamped at the
   originating write ([Causal.none] for pre-tracker traffic), so the id
   survives queuing, slot overwrites, gateway drains and re-injection. *)
type slot = { mutable content : (bytes * Time.t * Air_obs.Causal.id) option }

type buffer =
  | Sampling_slot of slot
  | Queuing_buffer of {
      depth : int;
      queue : (bytes * Time.t * Air_obs.Causal.id) Queue.t;
    }
  | Source_end  (** Source ports buffer nothing; writes fan out. *)

type port = int

type endpoint = { config : Port.config; buffer : buffer }

type t = {
  endpoints : endpoint array;
      (** By port ID: the port's position in declaration order, which is
          also the port field of every causal id stamped here. *)
  ids : (Port_name.t, port) Hashtbl.t;
      (** Name → ID, read only by {!resolve}. *)
  routes : port array array;
      (** Source ID → destination IDs; empty for destination ports and
          sources no channel starts at. *)
  messages_sent : Air_obs.Metrics.counter;
  messages_received : Air_obs.Metrics.counter;
  bytes_copied : Air_obs.Metrics.counter;
  overflows : Air_obs.Metrics.counter;
  stale_reads : Air_obs.Metrics.counter;
      (** Sampling reads whose slot content had outlived its refresh. *)
  delivery_latency : Air_obs.Metrics.histogram;
      (** Queuing receive latency: ticks between enqueue and receive. *)
  mutable on_delivery : (latency:int -> unit) option;
      (** Telemetry observer, invoked with the same latencies. *)
  recorder : Air_obs.Span.t option;
      (** Flight recorder: send-side delivery instants on the caller's
          track ([ipc.write-sampling], [ipc.send-queuing]) and [ipc.inject]
          instants on the module track for bus arrivals. *)
  causal : Air_obs.Causal.t option;
      (** Flow tracker: stamps every originating write and records
          receive/forward/perturb hops; [None] disables stamping (buffered
          ids are then [Causal.none]). *)
}

type validity = Valid | Invalid

let create ?metrics ?recorder ?causal (net : Port.network) =
  (match Port.validate net with
  | [] -> ()
  | d :: _ -> invalid_arg ("Router.create: " ^ d));
  let reg =
    match metrics with
    | Some reg -> reg
    | None -> Air_obs.Metrics.create ()
  in
  let endpoints =
    Array.of_list
      (List.map
         (fun (c : Port.config) ->
           let buffer =
             match (c.direction, c.kind) with
             | Port.Source, _ -> Source_end
             | Port.Destination, Port.Sampling _ ->
               Sampling_slot { content = None }
             | Port.Destination, Port.Queuing { depth } ->
               Queuing_buffer { depth; queue = Queue.create () }
           in
           { config = c; buffer })
         net.ports)
  in
  let ids = Hashtbl.create 16 in
  Array.iteri (fun id e -> Hashtbl.replace ids e.config.Port.name id) endpoints;
  (* Validation guarantees every channel names declared ports. *)
  let routes = Array.make (Array.length endpoints) [||] in
  List.iter
    (fun (ch : Port.channel) ->
      routes.(Hashtbl.find ids ch.source) <-
        Array.of_list (List.map (Hashtbl.find ids) ch.destinations))
    net.channels;
  { endpoints;
    ids;
    routes;
    messages_sent = Air_obs.Metrics.counter reg "ipc.messages_sent";
    messages_received = Air_obs.Metrics.counter reg "ipc.messages_received";
    bytes_copied = Air_obs.Metrics.counter reg "ipc.bytes_copied";
    overflows = Air_obs.Metrics.counter reg "ipc.overflows";
    stale_reads = Air_obs.Metrics.counter reg "ipc.stale_reads";
    delivery_latency = Air_obs.Metrics.histogram reg "ipc.delivery_latency";
    on_delivery = None;
    recorder;
    causal }

let set_delivery_observer t f = t.on_delivery <- Some f

let resolve t name = Option.value ~default:(-1) (Hashtbl.find_opt t.ids name)

let valid t port = port >= 0 && port < Array.length t.endpoints

let port_name t port =
  if valid t port then t.endpoints.(port).config.Port.name
  else "#" ^ string_of_int port

let port_config t port = t.endpoints.(port).config

let port_names t =
  Array.to_list (Array.mapi (fun id e -> (id, e.config.Port.name)) t.endpoints)

let record_instant t ~now ~track ~port name =
  match t.recorder with
  | None -> ()
  | Some r -> Air_obs.Span.instant r ~now ~track ~detail:port name

(* Causal hooks: all no-ops (and allocation-free) without a tracker. *)

let stamp_send t ~port ~caller ~now =
  match t.causal with
  | None -> Air_obs.Causal.none
  | Some c ->
    Air_obs.Causal.stamp c ~now ~partition:(Partition_id.index caller) ~port

let note_receive t ~now ~caller cid =
  match t.causal with
  | None -> ()
  | Some c ->
    Air_obs.Causal.receive c ~now ~track:(Partition_id.index caller) cid

let note_perturb t ~now ~what cid =
  match t.causal with
  | None -> ()
  | Some c -> Air_obs.Causal.perturb c ~now ~what cid

(* The endpoint behind [port] when [caller] owns it and it faces [dir];
   otherwise the error the service fails with. *)
let endpoint_for t ~caller ~port dir =
  if not (valid t port) then Error (Unknown_port (port_name t port))
  else
    let e = t.endpoints.(port) in
    if not (Partition_id.equal e.config.Port.partition caller) then
      Error (Not_owner { port = e.config.Port.name; caller })
    else if not (Port.direction_equal e.config.Port.direction dir) then
      Error (Wrong_direction e.config.Port.name)
    else Ok e

let payload_error (msg : bytes) (e : endpoint) =
  let size = Bytes.length msg in
  if size = 0 then Some Empty_message
  else if size > e.config.Port.max_message_size then
    Some
      (Message_too_large
         { port = e.config.Port.name;
           size;
           max = e.config.Port.max_message_size })
  else None

(* The name-keyed services: resolve, then the ID-keyed one. *)
let by_name t name f =
  match resolve t name with
  | -1 -> Error (Unknown_port name)
  | port -> f port

let write_sampling_id t ~caller ~port ~now msg =
  match endpoint_for t ~caller ~port Port.Source with
  | Error _ as err -> err
  | Ok e -> (
    match (payload_error msg e, e.config.Port.kind) with
    | Some err, _ -> Error err
    | None, Port.Queuing _ -> Error (Wrong_mode e.config.Port.name)
    | None, Port.Sampling _ ->
      let cid = stamp_send t ~port ~caller ~now in
      Array.iter
        (fun dest ->
          match t.endpoints.(dest).buffer with
          | Sampling_slot slot ->
            (* Memory-to-memory copy: the destination never aliases the
               sender's buffer. *)
            slot.content <- Some (Bytes.copy msg, now, cid);
            Air_obs.Metrics.add t.bytes_copied (Bytes.length msg)
          | Queuing_buffer _ | Source_end -> ())
        t.routes.(port);
      Air_obs.Metrics.incr t.messages_sent;
      record_instant t ~now ~track:(Partition_id.index caller)
        ~port:e.config.Port.name "ipc.write-sampling";
      Ok ())

let write_sampling t ~caller ~port ~now msg =
  by_name t port (fun port -> write_sampling_id t ~caller ~port ~now msg)

let read_sampling_id t ~caller ~port ~now =
  match endpoint_for t ~caller ~port Port.Destination with
  | Error _ as err -> err
  | Ok e -> (
    match (e.config.Port.kind, e.buffer) with
    | Port.Sampling { refresh }, Sampling_slot slot -> (
      match slot.content with
      | None -> Ok (Bytes.create 0, Invalid)
      | Some (msg, written, cid) ->
        let validity =
          if Time.(now <= Time.add written refresh) then Valid else Invalid
        in
        (match validity with
        | Invalid -> Air_obs.Metrics.incr t.stale_reads
        | Valid -> ());
        Air_obs.Metrics.incr t.messages_received;
        (* Non-destructive reads repeat; only the first observation of a
           given message closes its flow. Clearing the stored id keeps one
           Receive record per delivered message. *)
        if Air_obs.Causal.is_some cid then begin
          note_receive t ~now ~caller cid;
          slot.content <- Some (msg, written, Air_obs.Causal.none)
        end;
        Ok (Bytes.copy msg, validity))
    | (Port.Queuing _ | Port.Sampling _), _ ->
      Error (Wrong_mode e.config.Port.name))

let read_sampling t ~caller ~port ~now =
  by_name t port (fun port -> read_sampling_id t ~caller ~port ~now)

type send_outcome = { delivered : port list; overflowed : port list }

let send_queuing_id t ~caller ~port ~now msg =
  match endpoint_for t ~caller ~port Port.Source with
  | Error _ as err -> err
  | Ok e -> (
    match (payload_error msg e, e.config.Port.kind) with
    | Some err, _ -> Error err
    | None, Port.Sampling _ -> Error (Wrong_mode e.config.Port.name)
    | None, Port.Queuing _ ->
      let cid = stamp_send t ~port ~caller ~now in
      let delivered = ref [] and overflowed = ref [] in
      let dests = t.routes.(port) in
      (* Backwards, so the lists come out in channel order. *)
      for i = Array.length dests - 1 downto 0 do
        let dest = dests.(i) in
        match t.endpoints.(dest).buffer with
        | Queuing_buffer { depth; queue } ->
          if Queue.length queue >= depth then begin
            Air_obs.Metrics.incr t.overflows;
            overflowed := dest :: !overflowed
          end
          else begin
            Queue.push (Bytes.copy msg, now, cid) queue;
            Air_obs.Metrics.add t.bytes_copied (Bytes.length msg);
            delivered := dest :: !delivered
          end
        | Sampling_slot _ | Source_end -> ()
      done;
      Air_obs.Metrics.incr t.messages_sent;
      record_instant t ~now ~track:(Partition_id.index caller)
        ~port:e.config.Port.name "ipc.send-queuing";
      Ok { delivered = !delivered; overflowed = !overflowed })

let send_queuing t ~caller ~port ~now msg =
  by_name t port (fun port -> send_queuing_id t ~caller ~port ~now msg)

let pop_queuing t ~now queue =
  let msg, sent, cid = Queue.pop queue in
  Air_obs.Metrics.incr t.messages_received;
  (* Delivery latency: ticks the message spent queued. *)
  let latency = Int.max 0 (now - sent) in
  Air_obs.Metrics.observe t.delivery_latency latency;
  (match t.on_delivery with
  | None -> ()
  | Some f -> f ~latency);
  (msg, cid)

let receive_queuing_id t ~caller ~port ~now =
  match endpoint_for t ~caller ~port Port.Destination with
  | Error _ as err -> err
  | Ok e -> (
    match e.buffer with
    | Queuing_buffer { queue; _ } ->
      if Queue.is_empty queue then Ok None
      else begin
        let msg, cid = pop_queuing t ~now queue in
        note_receive t ~now ~caller cid;
        Ok (Some msg)
      end
    | Sampling_slot _ | Source_end -> Error (Wrong_mode e.config.Port.name))

let receive_queuing t ~caller ~port ~now =
  by_name t port (fun port -> receive_queuing_id t ~caller ~port ~now)

(* The queue behind [port], if it is a queuing destination. *)
let queue_of t port =
  if valid t port then
    match t.endpoints.(port).buffer with
    | Queuing_buffer { queue; _ } -> Some queue
    | Sampling_slot _ | Source_end -> None
  else None

(* Gateway drain towards a cluster link: identical accounting to
   [receive_queuing ~now] (so cluster metrics and telemetry match the
   single-module path byte for byte), but the causal record is a
   [Forward] — the message is changing modules, not being consumed — and
   the id is surfaced so the link transfer can carry it. *)
let drain t ~port ~now =
  match queue_of t port with
  | Some queue when not (Queue.is_empty queue) ->
    let msg, cid = pop_queuing t ~now queue in
    (match t.causal with
    | None -> ()
    | Some c -> Air_obs.Causal.forward c ~now cid);
    Some (msg, cid)
  | Some _ | None -> None

let pending t ~port =
  match queue_of t port with
  | Some queue -> Queue.length queue
  | None -> 0

let contents t port =
  match t.endpoints.(port).buffer with
  | Sampling_slot slot -> Option.to_list slot.content
  | Queuing_buffer { queue; _ } -> List.of_seq (Queue.to_seq queue)
  | Source_end -> []

type inject_outcome = Injected | Inject_overflow | Inject_bad_port

let inject ?(cid = Air_obs.Causal.none) t ~port ~now msg =
  if not (valid t port) then Inject_bad_port
  else
    let e = t.endpoints.(port) in
    if
      Bytes.length msg = 0
      || Bytes.length msg > e.config.Port.max_message_size
    then Inject_bad_port
    else begin
      match e.buffer with
      | Sampling_slot slot ->
        slot.content <- Some (Bytes.copy msg, now, cid);
        Air_obs.Metrics.add t.bytes_copied (Bytes.length msg);
        record_instant t ~now ~track:(-1) ~port:e.config.Port.name
          "ipc.inject";
        Injected
      | Queuing_buffer { depth; queue } ->
        if Queue.length queue >= depth then begin
          Air_obs.Metrics.incr t.overflows;
          Inject_overflow
        end
        else begin
          Queue.push (Bytes.copy msg, now, cid) queue;
          Air_obs.Metrics.add t.bytes_copied (Bytes.length msg);
          record_instant t ~now ~track:(-1) ~port:e.config.Port.name
            "ipc.inject";
          Injected
        end
      | Source_end -> Inject_bad_port
    end

(* Fault-injection perturbations (communication faults). All operate on a
   destination buffer — the delivery end of a channel — because that is
   where a faulty bus or switch corrupts traffic: after the send completed,
   before the receiver looks. *)

type perturb_outcome = Perturbed | No_message | Perturb_bad_port

let dest_endpoint t ~port =
  match resolve t port with
  | -1 -> None
  | id -> (
    match t.endpoints.(id) with
    | { buffer = Source_end; _ } -> None
    | e -> Some e)

let drop_head t ~port ~now =
  match dest_endpoint t ~port with
  | None -> Perturb_bad_port
  | Some { buffer = Sampling_slot slot; _ } -> (
    match slot.content with
    | None -> No_message
    | Some (_, _, cid) ->
      note_perturb t ~now ~what:Air_obs.Causal.Drop cid;
      slot.content <- None;
      Perturbed)
  | Some { buffer = Queuing_buffer { queue; _ }; _ } ->
    if Queue.is_empty queue then No_message
    else begin
      let _, _, cid = Queue.pop queue in
      note_perturb t ~now ~what:Air_obs.Causal.Drop cid;
      Perturbed
    end
  | Some { buffer = Source_end; _ } -> Perturb_bad_port

let steal_head t ~port ~now =
  match dest_endpoint t ~port with
  | None -> None
  | Some { buffer = Sampling_slot slot; _ } ->
    let taken =
      Option.map (fun (msg, _, cid) -> (msg, cid)) slot.content
    in
    slot.content <- None;
    (match taken with
    | Some (_, cid) -> note_perturb t ~now ~what:Air_obs.Causal.Delay cid
    | None -> ());
    taken
  | Some { buffer = Queuing_buffer { queue; _ }; _ } ->
    if Queue.is_empty queue then None
    else begin
      let msg, _, cid = Queue.pop queue in
      note_perturb t ~now ~what:Air_obs.Causal.Delay cid;
      Some (msg, cid)
    end
  | Some { buffer = Source_end; _ } -> None

let duplicate_head t ~port ~now =
  match dest_endpoint t ~port with
  | None -> Perturb_bad_port
  | Some { buffer = Sampling_slot slot; _ } ->
    (* Sampling semantics absorb duplicates: redelivering the same value
       overwrites the slot with itself. Still counts as applied. *)
    (match slot.content with
    | Some (_, _, cid) ->
      note_perturb t ~now ~what:Air_obs.Causal.Duplicate cid;
      Perturbed
    | None -> No_message)
  | Some { buffer = Queuing_buffer { depth; queue }; _ } ->
    if Queue.is_empty queue then No_message
    else begin
      let msg, sent, cid = Queue.peek queue in
      note_perturb t ~now ~what:Air_obs.Causal.Duplicate cid;
      if Queue.length queue >= depth then
        (* The duplicate arrives at a full queue and overflows, exactly as
           a regular late delivery would. *)
        Air_obs.Metrics.incr t.overflows
      else begin
        (* The copy keeps the original's id: it is the same logical
           message twice on the wire. *)
        Queue.push (Bytes.copy msg, sent, cid) queue;
        Air_obs.Metrics.add t.bytes_copied (Bytes.length msg)
      end;
      Perturbed
    end
  | Some { buffer = Source_end; _ } -> Perturb_bad_port

let corrupt_head t ~port ~byte ~now =
  let flip msg =
    let len = Bytes.length msg in
    if len = 0 then ()
    else begin
      let i = ((byte mod len) + len) mod len in
      Bytes.set msg i (Char.chr (Char.code (Bytes.get msg i) lxor 0xff))
    end
  in
  match dest_endpoint t ~port with
  | None -> Perturb_bad_port
  | Some { buffer = Sampling_slot slot; _ } -> (
    match slot.content with
    | None -> No_message
    | Some (msg, _, cid) ->
      note_perturb t ~now ~what:Air_obs.Causal.Corrupt cid;
      flip msg;
      Perturbed)
  | Some { buffer = Queuing_buffer { queue; _ }; _ } ->
    if Queue.is_empty queue then No_message
    else begin
      (* The queue owns its payloads (enqueue always copies), so the head
         can be mutated in place. *)
      let msg, _, cid = Queue.peek queue in
      note_perturb t ~now ~what:Air_obs.Causal.Corrupt cid;
      flip msg;
      Perturbed
    end
  | Some { buffer = Source_end; _ } -> Perturb_bad_port

let reorder_head t ~port ~now =
  match dest_endpoint t ~port with
  | None | Some { buffer = Sampling_slot _; _ } -> Perturb_bad_port
  | Some { buffer = Queuing_buffer { queue; _ }; _ } ->
    if Queue.length queue < 2 then No_message
    else begin
      let ((_, _, cid) as head) = Queue.pop queue in
      note_perturb t ~now ~what:Air_obs.Causal.Reorder cid;
      Queue.push head queue;
      Perturbed
    end
  | Some { buffer = Source_end; _ } -> Perturb_bad_port

(* The [ipc.*] registry counters, read together (the benchmark's layer
   split and E9 read them without a module around the router). *)
type stats = {
  messages_sent : int;
  messages_received : int;
  bytes_copied : int;
  overflows : int;
}

let stats (t : t) =
  { messages_sent = Air_obs.Metrics.value t.messages_sent;
    messages_received = Air_obs.Metrics.value t.messages_received;
    bytes_copied = Air_obs.Metrics.value t.bytes_copied;
    overflows = Air_obs.Metrics.value t.overflows }
