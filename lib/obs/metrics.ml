(* Metrics registry: monotonic counters and fixed-bucket histograms over
   integers, plus views — counters and gauges whose value a closure
   supplies when the registry is read.

   Design constraints (DESIGN.md §Observability):
   - recording is O(1) and float-free — the PMK clock-tick path records
     into these from inside the simulated ISR;
   - handles are obtained once, at component construction, so the hot
     path never touches the registry's hash table;
   - [counter]/[histogram] are get-or-create: asking for an
     already-registered name returns the existing instrument;
   - a fact some other structure already holds (an event count, a clock,
     a store's size) is a view of that structure, never a second count. *)

type counter = { mutable count : int }

type histogram = {
  bounds : int array;  (* inclusive upper bounds, strictly increasing *)
  buckets : int array; (* length bounds + 1; last bucket is +inf *)
  mutable observations : int;
  mutable total : int;
  mutable peak : int;
}

type instrument =
  | Counter of counter
  | Histogram of histogram
  | Counter_view of (unit -> int)
  | Gauge_view of (unit -> int)

type t = {
  instruments : (string, instrument) Hashtbl.t;
  mutable names : string list; (* registration order, newest first *)
}

let create () = { instruments = Hashtbl.create 64; names = [] }

let register t name instrument =
  match Hashtbl.find_opt t.instruments name with
  | Some existing -> existing
  | None ->
    Hashtbl.add t.instruments name instrument;
    t.names <- name :: t.names;
    instrument

let counter t name =
  match register t name (Counter { count = 0 }) with
  | Counter c -> c
  | Histogram _ | Counter_view _ | Gauge_view _ ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %S already registered as another kind"
         name)

(* Powers-of-two buckets cover tick-latency measurements well: most
   observations land in the first few buckets and the tail stays visible. *)
let bucket_bounds = [| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let histogram t name =
  let fresh =
    Histogram
      { bounds = bucket_bounds;
        buckets = Array.make (Array.length bucket_bounds + 1) 0;
        observations = 0;
        total = 0;
        peak = 0 }
  in
  match register t name fresh with
  | Histogram h -> h
  | Counter _ | Counter_view _ | Gauge_view _ ->
    invalid_arg
      (Printf.sprintf
         "Metrics.histogram: %S already registered as another kind" name)

(* A view has one source: registering its name twice is an error, not a
   get. *)
let view fn t name instrument =
  if Hashtbl.mem t.instruments name then
    invalid_arg (Printf.sprintf "Metrics.%s: %S already registered" fn name);
  Hashtbl.add t.instruments name instrument;
  t.names <- name :: t.names

let counter_view t name read = view "counter_view" t name (Counter_view read)
let gauge_view t name read = view "gauge_view" t name (Gauge_view read)

(* --- Recording (hot path) ----------------------------------------------- *)

let incr c = c.count <- c.count + 1
let add c n = if n > 0 then c.count <- c.count + n
let value c = c.count

let observe h x =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && x > h.bounds.(!i) do Stdlib.incr i done;
  h.buckets.(!i) <- h.buckets.(!i) + 1;
  h.observations <- h.observations + 1;
  h.total <- h.total + x;
  if x > h.peak then h.peak <- x

(* --- Snapshot (off the hot path) ---------------------------------------- *)

type histogram_view = {
  view_bounds : int array;
  view_buckets : int array;
  view_observations : int;
  view_total : int;
  view_peak : int;
}

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of histogram_view

type snapshot = (string * value) list

let read = function
  | Counter c -> Counter_value c.count
  | Counter_view read -> Counter_value (read ())
  | Gauge_view read -> Gauge_value (read ())
  | Histogram h ->
    Histogram_value
      { view_bounds = Array.copy h.bounds;
        view_buckets = Array.copy h.buckets;
        view_observations = h.observations;
        view_total = h.total;
        view_peak = h.peak }

let snapshot t : snapshot =
  List.rev_map
    (fun name -> (name, read (Hashtbl.find t.instruments name)))
    t.names
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map read (Hashtbl.find_opt t.instruments name)

(* Percentile estimate from the fixed buckets: the bucket holding the rank
   ceil(observations * num / den) answers with its inclusive upper bound;
   ranks landing in the +inf bucket answer with the exact peak. Integer
   arithmetic only, like everything else here. *)
let view_quantile (h : histogram_view) ~num ~den =
  if num < 0 || den <= 0 || num > den then
    invalid_arg "Metrics.view_quantile: need 0 <= num <= den, den > 0";
  if h.view_observations = 0 then 0
  else begin
    let rank = ((h.view_observations * num) + den - 1) / den in
    let rank = if rank < 1 then 1 else rank in
    let n = Array.length h.view_buckets in
    let rec walk i seen =
      if i >= n then h.view_peak
      else begin
        let seen = seen + h.view_buckets.(i) in
        if seen >= rank then
          if i < Array.length h.view_bounds then
            Int.min h.view_bounds.(i) h.view_peak
          else h.view_peak
        else walk (i + 1) seen
      end
    in
    walk 0 0
  end
