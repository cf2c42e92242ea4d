(* The flat rings behind the three bounded sinks (telemetry frames,
   completed spans, causal hops): recording promotes nothing to the major
   heap, a retention bound reserves no memory up front, and every read
   equals a list model's across random bounds, mid-stream growth and
   wrap. *)

open Air_obs

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Promotion gates ----------------------------------------------------- *)

(* Words promoted to the major heap by [f] and whatever it leaves alive:
   a minor collection on each side, so the first collects what came
   before and the second promotes what [f] left reachable. A ring that
   links each record from the previous one promotes every record. *)
let promoted_by f =
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  f ();
  Gc.minor ();
  let _, after, _ = Gc.counters () in
  after -. before

let gate = 1_000.

let check_promoted what words =
  if words > gate then
    Alcotest.failf "%s promoted %.0f words (gate %.0f)" what words gate

let telemetry_closes_promote_nothing () =
  let t =
    Telemetry.create
      ~config:(Telemetry.config ~retention:32 ())
      ~partition_count:3 ()
  in
  let allotted = [| 40; 30; 20 |] in
  Telemetry.prime t ~schedule:0 ~allotted;
  check_promoted "10 000 frame closes"
    (promoted_by (fun () ->
         for k = 1 to 10_000 do
           Telemetry.on_ticks t ~active:(k mod 3) ~count:90;
           Telemetry.on_ticks t ~active:(-1) ~count:10;
           Telemetry.on_dispatch t ~partition:(k mod 3) ~jitter:(k land 7);
           Telemetry.on_ipc_delivery t ~latency:(k land 15);
           ignore
             (Telemetry.close_frame t ~now:(k * 100) ~next_schedule:0
                ~next_allotted:allotted)
         done));
  check Alcotest.int "frames kept" 32 (Telemetry.retained t)

let spans_promote_nothing () =
  let r = Span.create ~capacity:4096 () in
  check_promoted "100 000 span pairs and instants"
    (promoted_by (fun () ->
         for k = 1 to 100_000 do
           Span.begin_span r ~now:k ~track:(k land 3) ~detail:"window"
             "partition-window";
           Span.end_span r ~now:(k + 1) ~track:(k land 3);
           Span.instant_value r ~now:k ~track:0 ~key:"elapsed" k
             "pal.catch-up"
         done));
  check Alcotest.int "spans kept" 4096 (Span.length r)

let causal_hops_promote_nothing () =
  let c = Causal.create ~capacity:4096 () in
  check_promoted "200 000 causal hops"
    (promoted_by (fun () ->
         for k = 1 to 100_000 do
           let id = Causal.stamp c ~now:k ~partition:1 ~port:2 in
           Causal.receive c ~now:(k + 1) ~track:0 id
         done));
  check Alcotest.int "hops kept" 4096 (Causal.length c)

(* --- Bounds reserve nothing ---------------------------------------------- *)

(* Words allocated by [f] on either heap ([Gc.counters]' minor count
   trails the minor heap; [Gc.minor_words] reads it exactly). *)
let allocated_by f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let v = f () in
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  (v, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let large_bound_reserves_nothing () =
  let c, words =
    allocated_by (fun () -> Causal.create ~capacity:1_000_000 ())
  in
  if words >= 100. then
    Alcotest.failf "Causal.create ~capacity:1_000_000 allocated %.0f words"
      words;
  check Alcotest.int "bound kept" 1_000_000 (Causal.capacity c)

let document retention =
  Printf.sprintf
    {|(air-system
  (partitions
    (partition (name A)
      (processes
        (process (name p) (period 100) (capacity 100) (wcet 5) (priority 5)
          (script (compute 5) (periodic-wait))))))
  (schedules
    (schedule (name s0) (mtf 100)
      (requirements (req (partition A) (cycle 100) (duration 100)))
      (windows (window (partition A) (offset 0) (duration 100)))))
  (causal (retention %d)))|}
    retention

let load_words retention =
  let text = document retention in
  match allocated_by (fun () -> Air_config.Loader.load text) with
  | Ok _, words -> words
  | Error e, _ -> Alcotest.fail e

let causal_retention_loads_in_constant_space () =
  (* Warm up once so lazily built tables cost neither load. *)
  ignore (load_words 16);
  let small = load_words 16 in
  let large = load_words 1_000_000 in
  if large -. small > 1_000. then
    Alcotest.failf "(retention 1000000) loads %.0f words over (retention 16)"
      (large -. small)

(* --- List models --------------------------------------------------------- *)

(* Random bounds straddling the first column size (16 slots) and its
   doublings, so growth happens mid-stream and a bounded ring wraps. *)
let bound_gen =
  QCheck.Gen.oneofl
    [ Some 1; Some 2; Some 63; Some 64; Some 65; Some 4096; None ]

(* The newest [bound] of [newest_first], oldest first. *)
let retain bound newest_first =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  List.rev
    (match bound with None -> newest_first | Some b -> take b newest_first)

(* A case interleaves single records, bursts (enough to wrap a 4096
   bound) and reads. *)
type 'a op = Record of 'a | Burst of int | Read

let case_gen record =
  QCheck.Gen.(
    pair bound_gen
      (list_size (int_range 1 60)
         (frequency
            [ (8, map (fun r -> Record r) record);
              (1, map (fun n -> Burst n) (int_range 1 3000));
              (1, return Read) ])))

let print_case (bound, ops) =
  Printf.sprintf "bound %s, %d ops"
    (match bound with None -> "none" | Some b -> string_of_int b)
    (List.length ops)

(* [apply] records one op in the sink and the model, [burst k] is a
   burst's [k]-th op and [agrees] compares every read with the model. *)
let model_test ~name ~record ~run =
  QCheck.Test.make ~name ~count:100
    (QCheck.make ~print:print_case (case_gen record))
    (fun (bound, ops) ->
      let apply, burst, agrees = run bound in
      List.for_all
        (function
          | Read -> agrees ()
          | Record x ->
            apply x;
            true
          | Burst n ->
            for k = 1 to n do
              apply (burst k)
            done;
            true)
        ops
      && agrees ())

let names = [| "partition-window"; "pal.catch-up"; "hm.process-error" |]
let details = [| ""; "nominal"; "deadline-missed" |]
let keys = [| "elapsed"; "deadline" |]

type span_op =
  | Begin of int * int
  | End of int
  | Instant of int * int
  | Valued of int * int

(* Completed spans against a newest-first list; open spans against one
   innermost-first stack per track. *)
let span_model =
  let track = QCheck.Gen.int_range (-1) 2 in
  model_test ~name:"span ring equals its list model"
    ~record:
      QCheck.Gen.(
        frequency
          [ (3, map2 (fun tr k -> Begin (tr, k)) track nat);
            (3, map (fun tr -> End tr) track);
            (2, map2 (fun tr k -> Instant (tr, k)) track nat);
            (2, map2 (fun tr k -> Valued (tr, k)) track nat) ])
    ~run:(fun bound ->
      let r = Span.create ?capacity:bound () in
      let now = ref 0 and completed = ref [] and total = ref 0 in
      let mismatches = ref 0 and stacks = Hashtbl.create 4 in
      let stack tr = Option.value (Hashtbl.find_opt stacks tr) ~default:[] in
      let finish (s : Span.span) =
        completed := s :: !completed;
        incr total
      in
      let apply op =
        incr now;
        let now = !now in
        match op with
        | Begin (track, k) ->
          let sub = k mod 3 and detail = details.(k mod 3) in
          let name = names.(k mod 3) in
          Span.begin_span r ~now ~track ~sub ~detail name;
          Hashtbl.replace stacks track
            ({ Span.name; track; sub; start = now; stop = 0; detail;
               phase = Span.Open }
            :: stack track)
        | End track -> (
          Span.end_span r ~now ~track;
          match stack track with
          | [] -> incr mismatches
          | s :: rest ->
            Hashtbl.replace stacks track rest;
            finish { s with stop = now; phase = Span.Complete })
        | Instant (track, k) ->
          let sub = k mod 5 and detail = details.(k mod 3) in
          let name = names.(k mod 3) in
          Span.instant r ~now ~track ~sub ~detail name;
          finish
            { Span.name; track; sub; start = now; stop = now; detail;
              phase = Span.Instant }
        | Valued (track, k) ->
          let key = keys.(k mod 2) and name = names.(k mod 3) in
          Span.instant_value r ~now ~track ~sub:(k mod 7) ~key k name;
          finish
            { Span.name; track; sub = k mod 7; start = now; stop = now;
              detail = Printf.sprintf "%s=%d" key k; phase = Span.Instant }
      in
      let burst k =
        match k mod 4 with
        | 0 -> Begin (k mod 3, k)
        | 1 -> Valued (k mod 2, k)
        | 2 -> End (k mod 3)
        | _ -> Instant (-1, k)
      in
      let agrees () =
        let open_model =
          Hashtbl.fold (fun tr st acc -> (tr, st) :: acc) stacks []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.concat_map (fun (_, st) ->
                 List.rev_map
                   (fun (s : Span.span) -> { s with stop = !now })
                   st)
        in
        let kept = retain bound !completed in
        Span.spans r = kept
        && Span.open_spans r ~now:!now = open_model
        && Span.length r = List.length kept
        && Span.total r = !total
        && Span.dropped r = !total - List.length kept
        && Span.mismatches r = !mismatches
      in
      (apply, burst, agrees))

type hop_op =
  | Stamp of int * int
  | Receive of int * int
  | Forward of int
  | Perturb of int * int

let perturbations =
  Causal.
    [| Drop; Duplicate; Corrupt; Reorder; Delay; Bus_drop; Bus_duplicate;
       Bus_corrupt; Bus_reorder; Bus_delay |]

(* Hops against a newest-first entry list. A hop on an odd [k] carries
   the newest stamped id, on an even one {!Causal.none}, which records
   nothing. Without a bound the tracker keeps its default 16 384. *)
let causal_model =
  model_test ~name:"causal ring equals its list model"
    ~record:
      QCheck.Gen.(
        frequency
          [ (3, map2 (fun p q -> Stamp (p, q)) (int_bound 3) (int_bound 5));
            (2, map2 (fun tr k -> Receive (tr, k)) (int_bound 3) nat);
            (1, map (fun k -> Forward k) nat);
            (2, map2 (fun w k -> Perturb (w, k)) (int_bound 9) nat) ])
    ~run:(fun bound ->
      let c = Causal.create ?capacity:bound ~module_id:5 () in
      let now = ref 0 and hops = ref [] and total = ref 0 in
      let last = ref Causal.none in
      let hop kind id track =
        if Causal.is_some id then begin
          hops := { Causal.kind; id; time = !now; track } :: !hops;
          incr total
        end
      in
      let carried k = if k land 1 = 1 then !last else Causal.none in
      let apply op =
        incr now;
        let now = !now in
        match op with
        | Stamp (partition, port) ->
          let id = Causal.stamp c ~now ~partition ~port in
          last := id;
          hop Causal.Send id partition
        | Receive (track, k) ->
          Causal.receive c ~now ~track (carried k);
          hop Causal.Receive (carried k) track
        | Forward k ->
          Causal.forward c ~now (carried k);
          hop Causal.Forward (carried k) (-1)
        | Perturb (w, k) ->
          let what = perturbations.(w) in
          Causal.perturb c ~now ~what (carried k);
          hop (Causal.Perturb what) (carried k) (-1)
      in
      let burst k =
        match k mod 4 with
        | 0 -> Stamp (k mod 3, k mod 4)
        | 1 -> Receive (k mod 3, k)
        | 2 -> Forward (k / 2)
        | _ -> Perturb (k mod 10, k)
      in
      let agrees () =
        let kept =
          retain (Some (Option.value bound ~default:16384)) !hops
        in
        let last_perturbed =
          List.fold_left
            (fun acc (e : Causal.entry) ->
              match e.kind with Causal.Perturb _ -> e.id | _ -> acc)
            Causal.none kept
        in
        Causal.entries c = kept
        && Causal.last_perturbed c = last_perturbed
        && Causal.length c = List.length kept
        && Causal.total c = !total
        && Causal.dropped c = !total - List.length kept
      in
      (apply, burst, agrees))

type frame_op =
  | Ticks of int * int
  | Dispatch of int * int * int
  | Catch_up of int * int
  | Miss of int
  | Hm of int
  | Ipc of int * int
  | Demand of int * int
  | Throttle of int
  | Window of int * int * int
  | Close of int

let partitions = 3

(* Frames against a newest-first list of frames built by a model
   accumulator: per-frame counters in arrays, percentiles from a
   {!Quantile} fed the same samples. [Dispatch (p, j, n)] and [Ipc (l, n)]
   record [n] consecutive samples from [j] or [l], so the percentiles of
   a frame differ from each other. *)
let telemetry_model =
  let p = QCheck.Gen.int_bound (partitions - 1) in
  let spread = QCheck.Gen.int_range 1 150 in
  let small = QCheck.Gen.int_bound 9 in
  model_test ~name:"telemetry ring equals its list model"
    ~record:
      QCheck.Gen.(
        frequency
          [ (4, map2 (fun a n -> Ticks (a, n)) (int_range (-1) 2) small);
            (2, map3 (fun p j n -> Dispatch (p, j, n)) p (int_bound 40) spread);
            (1, map2 (fun p d -> Catch_up (p, d)) p (int_bound 300));
            (1, map (fun p -> Miss p) p);
            (1, map (fun p -> Hm p) (int_range (-1) 2));
            (1, map2 (fun l n -> Ipc (l, n)) (int_bound 90) spread);
            (1, map2 (fun p c -> Demand (p, c)) p (int_bound 20));
            (1, map (fun p -> Throttle p) p);
            (1, map3 (fun p b c -> Window (p, b, c)) p nat nat);
            (3, map (fun k -> Close k) nat) ])
    ~run:(fun bound ->
      let t =
        Telemetry.create
          ~config:(Telemetry.config ?retention:bound ())
          ~partition_count:partitions ()
      in
      let interference = bound = Some 63 || bound = None in
      if interference then Telemetry.enable_interference t;
      let allotted k = Array.init partitions (fun i -> (k * (i + 1)) mod 97) in
      Telemetry.prime t ~schedule:0 ~allotted:(allotted 0);
      let counters () = Array.make partitions 0 in
      let now = ref 0 and start = ref 0 and schedule = ref 0 in
      let frames = ref [] and total = ref 0 in
      let busy = ref 0 and idle = ref 0 and catch_up = ref 0 in
      let misses = ref 0 and hm = ref 0 in
      let jitter = Quantile.create () and ipc = Quantile.create () in
      let window = counters () and dispatches = counters () in
      let jitter_max = counters () and catch_up_max = counters () in
      let p_misses = counters () and p_hm = counters () in
      let demand = counters () and throttled = counters () in
      let budget = counters () and pressure = counters () in
      let current = ref (allotted 0) in
      let bump a i n = a.(i) <- a.(i) + n in
      let apply op =
        match op with
        | Ticks (active, count) ->
          Telemetry.on_ticks t ~active ~count;
          now := !now + count;
          if active >= 0 then begin
            bump window active count;
            busy := !busy + count
          end
          else idle := !idle + count
        | Dispatch (p, j, n) ->
          for j = j to j + n - 1 do
            Telemetry.on_dispatch t ~partition:p ~jitter:j;
            Quantile.record jitter j
          done;
          bump dispatches p n;
          jitter_max.(p) <- Int.max jitter_max.(p) (j + n - 1)
        | Catch_up (p, depth) ->
          Telemetry.on_catch_up t ~partition:p ~depth;
          catch_up_max.(p) <- Int.max catch_up_max.(p) depth;
          catch_up := Int.max !catch_up depth
        | Miss p ->
          Telemetry.on_deadline_miss t ~partition:p;
          bump p_misses p 1;
          incr misses
        | Hm p ->
          let partition = if p < 0 then None else Some p in
          Telemetry.on_hm_error t ~partition;
          Option.iter (fun p -> bump p_hm p 1) partition;
          incr hm
        | Ipc (l, n) ->
          for latency = l to l + n - 1 do
            Telemetry.on_ipc_delivery t ~latency;
            Quantile.record ipc latency
          done
        | Demand (p, cost) ->
          Telemetry.on_mem_demand t ~partition:p ~cost;
          bump demand p cost
        | Throttle p ->
          Telemetry.on_throttled t ~partition:p;
          bump throttled p 1
        | Window (p, b, c) ->
          Telemetry.set_interference_window t ~partition:p ~budget:b
            ~co_pressure:c;
          budget.(p) <- b;
          pressure.(p) <- c
        | Close k ->
          incr now;
          let next = allotted k in
          let closed =
            Telemetry.close_frame t ~now:!now ~next_schedule:(k mod 4)
              ~next_allotted:next
          in
          let expected =
            { Telemetry.f_index = !total;
              f_schedule = !schedule;
              f_start = !start;
              f_stop = !now;
              f_busy = !busy;
              f_slack = !idle;
              f_catch_up_max = !catch_up;
              f_deadline_misses = !misses;
              f_hm_errors = !hm;
              f_jitter_count = Quantile.count jitter;
              f_jitter_p50 = Quantile.p50 jitter;
              f_jitter_p90 = Quantile.p90 jitter;
              f_jitter_p99 = Quantile.p99 jitter;
              f_jitter_max = Quantile.max_value jitter;
              f_ipc_count = Quantile.count ipc;
              f_ipc_p50 = Quantile.p50 ipc;
              f_ipc_p90 = Quantile.p90 ipc;
              f_ipc_p99 = Quantile.p99 ipc;
              f_ipc_max = Quantile.max_value ipc;
              f_interference = interference;
              f_partitions =
                Array.init partitions (fun i ->
                    { Telemetry.pf_partition = i;
                      pf_window_ticks = window.(i);
                      pf_allotted = !current.(i);
                      pf_dispatches = dispatches.(i);
                      pf_jitter_max = jitter_max.(i);
                      pf_catch_up_max = catch_up_max.(i);
                      pf_deadline_misses = p_misses.(i);
                      pf_hm_errors = p_hm.(i);
                      pf_mem_demand = demand.(i);
                      pf_mem_budget = budget.(i);
                      pf_throttled = throttled.(i);
                      pf_co_pressure = pressure.(i) }) }
          in
          if closed <> expected then
            QCheck.Test.fail_reportf "frame %d closed unlike the model" !total;
          frames := expected :: !frames;
          incr total;
          schedule := k mod 4;
          start := !now;
          current := next;
          busy := 0;
          idle := 0;
          catch_up := 0;
          misses := 0;
          hm := 0;
          Quantile.clear jitter;
          Quantile.clear ipc;
          List.iter
            (fun a -> Array.fill a 0 partitions 0)
            [ window; dispatches; jitter_max; catch_up_max; p_misses; p_hm;
              demand; throttled ]
      in
      let burst k =
        match k mod 6 with
        | 0 -> Close k
        | 1 -> Ticks ((k mod 4) - 1, k mod 7)
        | 2 -> Dispatch (k mod 3, k mod 11, 1 + (k mod 100))
        | 3 -> Demand (k mod 3, k mod 13)
        | 4 -> Ipc (k mod 7, 1 + (k mod 60))
        | _ -> Window (k mod 3, k mod 17, k mod 19)
      in
      let agrees () =
        let kept = retain bound !frames in
        Telemetry.frames t = kept
        && Telemetry.retained t = List.length kept
        && Telemetry.total_frames t = !total
      in
      (apply, burst, agrees))

let suite =
  [ Alcotest.test_case "telemetry closes promote nothing" `Quick
      telemetry_closes_promote_nothing;
    Alcotest.test_case "spans promote nothing" `Quick spans_promote_nothing;
    Alcotest.test_case "causal hops promote nothing" `Quick
      causal_hops_promote_nothing;
    Alcotest.test_case "a large bound reserves nothing" `Quick
      large_bound_reserves_nothing;
    Alcotest.test_case "causal retention loads in constant space" `Quick
      causal_retention_loads_in_constant_space;
    qcheck span_model;
    qcheck causal_model;
    qcheck telemetry_model ]
