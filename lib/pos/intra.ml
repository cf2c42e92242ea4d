open Air_sim

type discipline = Fifo | Priority

let pp_discipline ppf d =
  Format.pp_print_string ppf
    (match d with Fifo -> "fifo" | Priority -> "priority")

type semaphore = {
  mutable count : int;
  maximum : int;
  sem_discipline : discipline;
}

type event_obj = { mutable up : bool }

type blackboard = {
  mutable message : bytes option;
  bb_max_size : int;
}

type buffer = {
  depth : int;
  buf_max_size : int;
  buf_discipline : discipline;
  queue : bytes Queue.t;
}

type t = {
  kernel : Kernel.t;
  semaphores : (string, semaphore) Hashtbl.t;
  events : (string, event_obj) Hashtbl.t;
  blackboards : (string, blackboard) Hashtbl.t;
  buffers : (string, buffer) Hashtbl.t;
  mailboxes : bytes option array;
      (* Per-process delivery slot for messages satisfied while blocked. *)
  pending_sends : (string * bytes) option array;
      (* Message a sender is blocked trying to push into a full buffer. *)
}

let create kernel =
  let n = Kernel.process_count kernel in
  { kernel;
    semaphores = Hashtbl.create 8;
    events = Hashtbl.create 8;
    blackboards = Hashtbl.create 8;
    buffers = Hashtbl.create 8;
    mailboxes = Array.make (Int.max n 1) None;
    pending_sends = Array.make (Int.max n 1) None }

type create_error = Already_exists of string | Bad_parameter of string

let fresh table name v =
  if Hashtbl.mem table name then Error (Already_exists name)
  else begin
    Hashtbl.replace table name v;
    Ok ()
  end

let create_semaphore t ~name ~initial ~maximum discipline =
  if maximum <= 0 then Error (Bad_parameter "semaphore maximum must be positive")
  else if initial < 0 || initial > maximum then
    Error (Bad_parameter "semaphore initial value out of range")
  else
    fresh t.semaphores name
      { count = initial; maximum; sem_discipline = discipline }

let create_event t ~name = fresh t.events name { up = false }

let create_blackboard t ~name ~max_message_size =
  if max_message_size <= 0 then
    Error (Bad_parameter "blackboard max message size must be positive")
  else fresh t.blackboards name { message = None; bb_max_size = max_message_size }

let create_buffer t ~name ~depth ~max_message_size discipline =
  if depth <= 0 then Error (Bad_parameter "buffer depth must be positive")
  else if max_message_size <= 0 then
    Error (Bad_parameter "buffer max message size must be positive")
  else
    fresh t.buffers name
      { depth;
        buf_max_size = max_message_size;
        buf_discipline = discipline;
        queue = Queue.create () }

type outcome =
  [ `Done | `Blocked | `Unavailable | `No_such_object | `Message_too_large ]

let pp_outcome ppf (o : outcome) =
  Format.pp_print_string ppf
    (match o with
    | `Done -> "done"
    | `Blocked -> "blocked"
    | `Unavailable -> "unavailable"
    | `No_such_object -> "no-such-object"
    | `Message_too_large -> "message-too-large")

let waiters t discipline pred =
  match discipline with
  | Fifo -> Kernel.waiters_fifo t.kernel pred
  | Priority -> Kernel.waiters_priority t.kernel pred

let on_semaphore name = function
  | Kernel.On_semaphore n -> String.equal n name
  | _ -> false

let on_event name = function
  | Kernel.On_event n -> String.equal n name
  | _ -> false

let on_blackboard name = function
  | Kernel.On_blackboard n -> String.equal n name
  | _ -> false

let on_buffer name = function
  | Kernel.On_buffer n -> String.equal n name
  | _ -> false

(* Semaphores *)

let wait_semaphore t ~now ~process ~name ~timeout : outcome =
  match Hashtbl.find_opt t.semaphores name with
  | None -> `No_such_object
  | Some s ->
    if s.count > 0 then begin
      s.count <- s.count - 1;
      `Done
    end
    else if timeout = Time.zero then `Unavailable
    else begin
      Kernel.block t.kernel ~now process (Kernel.On_semaphore name) ~timeout;
      `Blocked
    end

let signal_semaphore t ~now ~name : outcome =
  match Hashtbl.find_opt t.semaphores name with
  | None -> `No_such_object
  | Some s -> (
    match waiters t s.sem_discipline (on_semaphore name) with
    | q :: _ ->
      (* The semaphore is handed directly to the woken waiter. *)
      Kernel.wake t.kernel ~now q ~timed_out:false;
      `Done
    | [] ->
      if s.count >= s.maximum then `Unavailable
      else begin
        s.count <- s.count + 1;
        `Done
      end)

let semaphore_value t ~name =
  Option.map (fun s -> s.count) (Hashtbl.find_opt t.semaphores name)

(* Events *)

let wait_event t ~now ~process ~name ~timeout : outcome =
  match Hashtbl.find_opt t.events name with
  | None -> `No_such_object
  | Some e ->
    if e.up then `Done
    else if timeout = Time.zero then `Unavailable
    else begin
      Kernel.block t.kernel ~now process (Kernel.On_event name) ~timeout;
      `Blocked
    end

let set_event t ~now ~name : outcome =
  match Hashtbl.find_opt t.events name with
  | None -> `No_such_object
  | Some e ->
    e.up <- true;
    List.iter
      (fun q -> Kernel.wake t.kernel ~now q ~timed_out:false)
      (waiters t Fifo (on_event name));
    `Done

let reset_event t ~name : outcome =
  match Hashtbl.find_opt t.events name with
  | None -> `No_such_object
  | Some e ->
    e.up <- false;
    `Done

let event_is_up t ~name =
  Option.map (fun e -> e.up) (Hashtbl.find_opt t.events name)

(* Blackboards *)

let display_blackboard t ~now ~name msg : outcome =
  match Hashtbl.find_opt t.blackboards name with
  | None -> `No_such_object
  | Some b ->
    if Bytes.length msg > b.bb_max_size then `Message_too_large
    else begin
      b.message <- Some (Bytes.copy msg);
      List.iter
        (fun q ->
          t.mailboxes.(q) <- Some (Bytes.copy msg);
          Kernel.wake t.kernel ~now q ~timed_out:false)
        (waiters t Fifo (on_blackboard name));
      `Done
    end

let clear_blackboard t ~name : outcome =
  match Hashtbl.find_opt t.blackboards name with
  | None -> `No_such_object
  | Some b ->
    b.message <- None;
    `Done

let read_blackboard t ~now ~process ~name ~timeout =
  match Hashtbl.find_opt t.blackboards name with
  | None -> `No_such_object
  | Some b -> (
    match b.message with
    | Some msg -> `Read (Bytes.copy msg)
    | None ->
      if timeout = Time.zero then `Unavailable
      else begin
        Kernel.block t.kernel ~now process (Kernel.On_blackboard name)
          ~timeout;
        `Blocked
      end)

(* Buffers *)

(* A waiting reader is distinguished from a waiting sender by its pending
   send slot: senders blocked on a full buffer carry their message there. *)
let buffer_readers t = List.filter (fun q -> t.pending_sends.(q) = None)

let send_buffer t ~now ~process ~name msg ~timeout : outcome =
  match Hashtbl.find_opt t.buffers name with
  | None -> `No_such_object
  | Some b ->
    if Bytes.length msg > b.buf_max_size then `Message_too_large
    else begin
      let readers =
        buffer_readers t (waiters t b.buf_discipline (on_buffer name))
      in
      match readers with
      | q :: _ ->
        t.mailboxes.(q) <- Some (Bytes.copy msg);
        Kernel.wake t.kernel ~now q ~timed_out:false;
        `Done
      | [] ->
        if Queue.length b.queue < b.depth then begin
          Queue.push (Bytes.copy msg) b.queue;
          `Done
        end
        else if timeout = Time.zero then `Unavailable
        else begin
          t.pending_sends.(process) <- Some (name, Bytes.copy msg);
          Kernel.block t.kernel ~now process (Kernel.On_buffer name) ~timeout;
          `Blocked
        end
    end

let receive_buffer t ~now ~process ~name ~timeout =
  match Hashtbl.find_opt t.buffers name with
  | None -> `No_such_object
  | Some b ->
    if not (Queue.is_empty b.queue) then begin
      let msg = Queue.pop b.queue in
      (* Space freed: admit the longest-blocked sender, if any. *)
      let senders =
        List.filter
          (fun q -> t.pending_sends.(q) <> None)
          (waiters t b.buf_discipline (on_buffer name))
      in
      (match senders with
      | q :: _ -> (
        match t.pending_sends.(q) with
        | Some (_, pending) ->
          Queue.push pending b.queue;
          t.pending_sends.(q) <- None;
          Kernel.wake t.kernel ~now q ~timed_out:false
        | None -> ())
      | [] -> ());
      `Read msg
    end
    else if timeout = Time.zero then `Unavailable
    else begin
      Kernel.block t.kernel ~now process (Kernel.On_buffer name) ~timeout;
      `Blocked
    end

let buffer_occupancy t ~name =
  Option.map (fun b -> Queue.length b.queue) (Hashtbl.find_opt t.buffers name)

let deliver t ~process msg = t.mailboxes.(process) <- Some (Bytes.copy msg)

let take_delivery t ~process =
  let msg = t.mailboxes.(process) in
  t.mailboxes.(process) <- None;
  msg

let sorted table f =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name o acc -> (name, f o) :: acc) table [])

let observe t =
  ( sorted t.semaphores (fun s -> s.count),
    sorted t.events (fun e -> e.up),
    sorted t.blackboards (fun b -> b.message),
    sorted t.buffers (fun b -> List.of_seq (Queue.to_seq b.queue)),
    Array.to_list t.mailboxes,
    Array.to_list t.pending_sends )

let clear_mailboxes t =
  Array.fill t.mailboxes 0 (Array.length t.mailboxes) None;
  Array.fill t.pending_sends 0 (Array.length t.pending_sends) None

let reset t =
  Hashtbl.reset t.semaphores;
  Hashtbl.reset t.events;
  Hashtbl.reset t.blackboards;
  Hashtbl.reset t.buffers;
  clear_mailboxes t
