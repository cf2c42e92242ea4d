(* Flight-recorder spans: nested, integer-clock intervals with track
   attribution.

   Completed spans go into a [Ring] with the same bounded-retention policy
   as [Sim.Trace], one slot per span (layout below); a [span] record is
   built only when the ring is read. Open spans sit on one stack per track
   (a hash table of lists keyed by track index) so begin/end are O(1). *)

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
  done_ : Ring.t;
  open_ : (int, frame list) Hashtbl.t;
  mutable mismatches : int;
}

(* A completed span is one slot of six ints (track, sub, start, stop,
   kind, value) and two strings (name, detail). A valued instant's detail
   field holds the key of its [key=value] detail, rendered when read. *)
let span_ints = 6
let span_strings = 2

let kind_complete = 0
let kind_instant = 1
let kind_valued = 2

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Span.create: capacity must be positive"
  | _ -> ());
  { done_ =
      Ring.create ?bound:capacity ~ints:span_ints ~strings:span_strings ();
    open_ = Hashtbl.create 8;
    mismatches = 0 }

let push_done t ~kind ~track ~sub ~start ~stop ~value ~detail name =
  let s = Ring.push t.done_ in
  let ints = t.done_.int_col and i = s * span_ints in
  ints.(i) <- track;
  ints.(i + 1) <- sub;
  ints.(i + 2) <- start;
  ints.(i + 3) <- stop;
  ints.(i + 4) <- kind;
  ints.(i + 5) <- value;
  let strings = t.done_.string_col and j = s * span_strings in
  strings.(j) <- name;
  strings.(j + 1) <- detail

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
    push_done t ~kind:kind_complete ~track ~sub:frame.f_sub
      ~start:frame.f_start ~stop:now ~value:0 ~detail:frame.f_detail
      frame.f_name

let instant t ~now ~track ?(sub = 0) ?(detail = "") name =
  push_done t ~kind:kind_instant ~track ~sub ~start:now ~stop:now ~value:0
    ~detail name

let instant_value t ~now ~track ?(sub = 0) ~key value name =
  push_done t ~kind:kind_valued ~track ~sub ~start:now ~stop:now ~value
    ~detail:key name

let spans t =
  let ints = t.done_.int_col and strings = t.done_.string_col in
  List.init (Ring.length t.done_) (fun n ->
      let s = Ring.slot t.done_ n in
      let i = s * span_ints and j = s * span_strings in
      let kind = ints.(i + 4) and detail = strings.(j + 1) in
      { name = strings.(j);
        track = ints.(i);
        sub = ints.(i + 1);
        start = ints.(i + 2);
        stop = ints.(i + 3);
        detail =
          (if kind = kind_valued then
             detail ^ "=" ^ string_of_int ints.(i + 5)
           else detail);
        phase = (if kind = kind_complete then Complete else Instant) })

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

let length t = Ring.length t.done_
let total t = Ring.total t.done_
let dropped t = Ring.dropped t.done_
let mismatches t = t.mismatches

let pp_span ppf s =
  Format.fprintf ppf "[%d,%d%s] %s@%d..%d%s" s.track s.sub
    (match s.phase with Complete -> "" | Instant -> " i" | Open -> " open")
    s.name s.start s.stop
    (if String.equal s.detail "" then "" else " (" ^ s.detail ^ ")")
