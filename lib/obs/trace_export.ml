(* Chrome trace-event export: spans and point events to the JSON array
   form of the Trace Event Format (chrome://tracing / Perfetto). *)

let esc = Report.json_escape

let pid_of_track track = track + 1
let tid_of_sub sub = sub + 1

(* The dedicated lane for point events taken from the system event trace
   (they carry no track attribution of their own). *)
let events_pid = 0
let events_tid = 2

type row = { ts : int; order : int; body : string }

let metadata_rows tracks =
  List.concat_map
    (fun (track, name) ->
      let pid = pid_of_track track in
      [ { ts = 0;
          order = -2;
          body =
            Printf.sprintf
              "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
               \"args\":{\"name\":\"%s\"}}"
              pid (esc name) } ])
    tracks

let args_field detail =
  if String.equal detail "" then ""
  else Printf.sprintf ",\"args\":{\"detail\":\"%s\"}" (esc detail)

let span_row (s : Span.span) =
  let pid = pid_of_track s.Span.track in
  let tid = tid_of_sub s.Span.sub in
  match s.Span.phase with
  | Span.Complete | Span.Instant ->
    { ts = s.Span.start;
      order = 0;
      body =
        Printf.sprintf
          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\
           \"tid\":%d%s}"
          (esc s.Span.name) s.Span.start
          (Int.max 0 (s.Span.stop - s.Span.start))
          pid tid
          (args_field s.Span.detail) }
  | Span.Open ->
    { ts = s.Span.start;
      order = 1;
      body =
        Printf.sprintf
          "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%d,\"pid\":%d,\"tid\":%d%s}"
          (esc s.Span.name) s.Span.start pid tid
          (args_field s.Span.detail) }

let event_row (time, name, detail) =
  { ts = time;
    order = 0;
    body =
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":0,\"pid\":%d,\
         \"tid\":%d%s}"
        (esc name) time events_pid events_tid (args_field detail) }

(* Causal hops map onto Chrome flow events: the origin [Send] starts a
   flow ("s"), gateway [Forward]s are intermediate steps ("t"), the final
   [Receive] ends it ("f" with binding point "e" so the arrow lands on
   the enclosing slice). Matching relies on the shared [id] + [cat]
   fields, which is exactly what the packed correlation id provides.
   Perturbations render as zero-duration instants so a faulted flow is
   visibly annotated where the fault hit. *)
let flow_row (e : Causal.entry) =
  let pid = pid_of_track e.Causal.track in
  let label = Causal.to_string e.Causal.id in
  match e.Causal.kind with
  | Causal.Send ->
    Some
      { ts = e.Causal.time;
        order = 2;
        body =
          Printf.sprintf
            "{\"name\":\"flow\",\"cat\":\"ipc\",\"ph\":\"s\",\"ts\":%d,\
             \"pid\":%d,\"tid\":1,\"id\":%d,\"args\":{\"flow\":\"%s\"}}"
            e.Causal.time pid e.Causal.id (esc label) }
  | Causal.Forward ->
    Some
      { ts = e.Causal.time;
        order = 2;
        body =
          Printf.sprintf
            "{\"name\":\"flow\",\"cat\":\"ipc\",\"ph\":\"t\",\"ts\":%d,\
             \"pid\":%d,\"tid\":1,\"id\":%d,\"args\":{\"flow\":\"%s\"}}"
            e.Causal.time pid e.Causal.id (esc label) }
  | Causal.Receive ->
    Some
      { ts = e.Causal.time;
        order = 2;
        body =
          Printf.sprintf
            "{\"name\":\"flow\",\"cat\":\"ipc\",\"ph\":\"f\",\"bp\":\"e\",\
             \"ts\":%d,\"pid\":%d,\"tid\":1,\"id\":%d,\
             \"args\":{\"flow\":\"%s\"}}"
            e.Causal.time pid e.Causal.id (esc label) }
  | Causal.Perturb what ->
    Some
      { ts = e.Causal.time;
        order = 2;
        body =
          Printf.sprintf
            "{\"name\":\"flow.perturb\",\"ph\":\"X\",\"ts\":%d,\"dur\":0,\
             \"pid\":%d,\"tid\":1,\"args\":{\"detail\":\"%s\",\
             \"flow\":\"%s\"}}"
            e.Causal.time pid
            (esc (Causal.perturbation_label what))
            (esc label) }

(* Export-level counters (e.g. spans/records evicted by bounded
   retention) ride along as one metadata event so a truncated trace is
   distinguishable from a complete one. *)
let meta_row meta =
  let args =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (esc k) v) meta)
  in
  { ts = 0;
    order = -1;
    body =
      Printf.sprintf
        "{\"name\":\"air.meta\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{%s}}"
        args }

let to_chrome ?(tracks = []) ?(events = []) ?(flows = []) ?(meta = []) spans =
  let rows =
    metadata_rows tracks
    @ (if meta = [] then [] else [ meta_row meta ])
    @ List.map span_row spans
    @ List.map event_row events
    @ List.filter_map flow_row flows
  in
  let rows =
    List.stable_sort
      (fun a b ->
        match Stdlib.compare a.order b.order with
        | 0 -> Stdlib.compare a.ts b.ts
        | c -> c)
      rows
  in
  let buf = Buffer.create (4096 + (List.length rows * 96)) in
  Buffer.add_string buf "[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n";
      Buffer.add_string buf row.body)
    rows;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
