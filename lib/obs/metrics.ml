(* Metrics registry: monotonic counters, gauges and fixed-bucket
   histograms over integers.

   Design constraints (DESIGN.md §Observability):
   - recording is O(1) and float-free — the PMK clock-tick path records
     into these from inside the simulated ISR;
   - handles are obtained once, at component construction, so the hot
     path never touches the registry's hash table;
   - [counter]/[gauge]/[histogram] are get-or-create: asking for an
     already-registered name returns the existing instrument, letting
     several instances of a component (e.g. one PAL per partition)
     aggregate into shared series. *)

type counter = { mutable count : int }
type gauge = { mutable level : int }

type histogram = {
  bounds : int array;  (* inclusive upper bounds, strictly increasing *)
  buckets : int array; (* length bounds + 1; last bucket is +inf *)
  mutable observations : int;
  mutable total : int;
  mutable peak : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

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
  | Gauge _ | Histogram _ ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %S already registered as another kind"
         name)

let gauge t name =
  match register t name (Gauge { level = 0 }) with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %S already registered as another kind"
         name)

(* Powers-of-two buckets cover tick-latency measurements well: most
   observations land in the first few buckets and the tail stays visible. *)
let default_buckets = [| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let histogram ?(buckets = default_buckets) t name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must strictly increase")
    buckets;
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: need at least one bucket bound";
  let fresh =
    Histogram
      { bounds = Array.copy buckets;
        buckets = Array.make (Array.length buckets + 1) 0;
        observations = 0;
        total = 0;
        peak = 0 }
  in
  match register t name fresh with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg
      (Printf.sprintf
         "Metrics.histogram: %S already registered as another kind" name)

(* --- Recording (hot path) ----------------------------------------------- *)

let incr c = c.count <- c.count + 1
let add c n = if n > 0 then c.count <- c.count + n
let value c = c.count

let set g v = g.level <- v
let gauge_incr g = g.level <- g.level + 1
let gauge_decr g = g.level <- g.level - 1
let level g = g.level

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

let snapshot t : snapshot =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find t.instruments name with
        | Counter c -> Counter_value c.count
        | Gauge g -> Gauge_value g.level
        | Histogram h ->
          Histogram_value
            { view_bounds = Array.copy h.bounds;
              view_buckets = Array.copy h.buckets;
              view_observations = h.observations;
              view_total = h.total;
              view_peak = h.peak }
      in
      (name, v))
    t.names
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name =
  match Hashtbl.find_opt t.instruments name with
  | None -> None
  | Some (Counter c) -> Some (Counter_value c.count)
  | Some (Gauge g) -> Some (Gauge_value g.level)
  | Some (Histogram h) ->
    Some
      (Histogram_value
         { view_bounds = Array.copy h.bounds;
           view_buckets = Array.copy h.buckets;
           view_observations = h.observations;
           view_total = h.total;
           view_peak = h.peak })

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
