(* Flight-recorder spans: nested, integer-clock intervals with track
   attribution.

   Completed spans go into a queue with the same bounded-retention policy
   as [Sim.Trace]; open spans sit on one stack per track (a hash table of
   lists keyed by track index) so begin/end are O(1). *)

type phase = Complete | Instant | Open

type span = {
  name : string;
  track : int;
  sub : int;
  start : int;
  stop : int;
  detail : string;
  phase : phase;
}

(* An open frame remembers everything the closing edge doesn't know. *)
type frame = { f_name : string; f_sub : int; f_start : int; f_detail : string }

type t = {
  capacity : int option;
  done_ : span Queue.t;
  open_ : (int, frame list) Hashtbl.t;
  mutable total : int;
  mutable mismatches : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Span.create: capacity must be positive"
  | _ -> ());
  { capacity;
    done_ = Queue.create ();
    open_ = Hashtbl.create 8;
    total = 0;
    mismatches = 0 }

let push_done t span =
  Queue.push span t.done_;
  t.total <- t.total + 1;
  match t.capacity with
  | Some c when Queue.length t.done_ > c -> ignore (Queue.pop t.done_)
  | _ -> ()

let begin_span t ~now ~track ?(sub = 0) ?(detail = "") name =
  let frame = { f_name = name; f_sub = sub; f_start = now; f_detail = detail } in
  let stack =
    match Hashtbl.find_opt t.open_ track with Some s -> s | None -> []
  in
  Hashtbl.replace t.open_ track (frame :: stack)

let end_span t ~now ~track =
  match Hashtbl.find_opt t.open_ track with
  | None | Some [] -> t.mismatches <- t.mismatches + 1
  | Some (frame :: rest) ->
    Hashtbl.replace t.open_ track rest;
    push_done t
      { name = frame.f_name;
        track;
        sub = frame.f_sub;
        start = frame.f_start;
        stop = now;
        detail = frame.f_detail;
        phase = Complete }

let instant t ~now ~track ?(sub = 0) ?(detail = "") name =
  push_done t
    { name; track; sub; start = now; stop = now; detail; phase = Instant }

let spans t = List.of_seq (Queue.to_seq t.done_)

let open_spans t ~now =
  let tracks =
    Hashtbl.fold (fun track stack acc -> (track, stack) :: acc) t.open_ []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  List.concat_map
    (fun (track, stack) ->
      (* Stacks are innermost-first; report outermost first. *)
      List.rev_map
        (fun frame ->
          { name = frame.f_name;
            track;
            sub = frame.f_sub;
            start = frame.f_start;
            stop = now;
            detail = frame.f_detail;
            phase = Open })
        stack)
    tracks

let depth t ~track =
  match Hashtbl.find_opt t.open_ track with
  | None -> 0
  | Some stack -> List.length stack

let length t = Queue.length t.done_
let total t = t.total
let dropped t = t.total - Queue.length t.done_
let mismatches t = t.mismatches

let pp_span ppf s =
  Format.fprintf ppf "[%d,%d%s] %s@%d..%d%s" s.track s.sub
    (match s.phase with Complete -> "" | Instant -> " i" | Open -> " open")
    s.name s.start s.stop
    (if String.equal s.detail "" then "" else " (" ^ s.detail ^ ")")
