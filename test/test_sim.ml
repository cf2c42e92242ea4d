(* Tests for the simulation substrate: Time, Rng, Stats, Vec, Heap, Trace. *)

open Air_sim

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Time --------------------------------------------------------------- *)

let time_basics () =
  check Alcotest.int "zero" 0 Time.zero;
  check Alcotest.bool "infinity is infinite" true (Time.is_infinite Time.infinity);
  check Alcotest.bool "finite is not infinite" false (Time.is_infinite 42);
  check Alcotest.int "add" 7 (Time.add 3 4);
  check Alcotest.bool "add saturates" true
    (Time.is_infinite (Time.add Time.infinity 5));
  check Alcotest.bool "add saturates (right)" true
    (Time.is_infinite (Time.add 5 Time.infinity));
  check Alcotest.int "sub clamps" 0 (Time.sub 3 10);
  check Alcotest.int "sub" 7 (Time.sub 10 3);
  check Alcotest.bool "sub keeps infinity" true
    (Time.is_infinite (Time.sub Time.infinity 10))

let time_of_int_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Time.of_int: negative tick count")
    (fun () -> ignore (Time.of_int (-1)))

let time_lcm () =
  check Alcotest.int "lcm 4 6" 12 (Time.lcm 4 6);
  check Alcotest.int "lcm 650 1300" 1300 (Time.lcm 650 1300);
  check Alcotest.int "lcm_list" 1300 (Time.lcm_list [ 1300; 650; 650; 1300 ]);
  Alcotest.check_raises "lcm zero"
    (Invalid_argument "Time.lcm: non-positive duration") (fun () ->
      ignore (Time.lcm 0 5))

let time_pp () =
  check Alcotest.string "finite" "42" (Time.to_string 42);
  check Alcotest.string "infinite" "∞" (Time.to_string Time.infinity)

let qcheck_lcm_divides =
  QCheck.Test.make ~name:"lcm is a common multiple"
    QCheck.(pair (int_range 1 500) (int_range 1 500))
    (fun (a, b) ->
      let l = Time.lcm a b in
      l mod a = 0 && l mod b = 0 && l <= a * b)

(* --- Rng ---------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  check Alcotest.bool "different next value" true
    (not (Int64.equal (Rng.bits64 parent) (Rng.bits64 child)))

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range"
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let qcheck_uunifast =
  QCheck.Test.make ~name:"uunifast sums to target, all non-negative"
    QCheck.(triple int (int_range 1 16) (float_range 0.05 0.95))
    (fun (seed, n, u) ->
      let rng = Rng.create seed in
      let utils = Rng.uunifast rng n u in
      let sum = Array.fold_left ( +. ) 0.0 utils in
      Array.for_all (fun x -> x >= -.1e-9) utils
      && Float.abs (sum -. u) < 1e-6)

let rng_exponential_positive () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    check Alcotest.bool "positive" true (Rng.exponential rng 10.0 >= 0.0)
  done

let rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let rng_log_uniform_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let v = Rng.log_uniform rng 10 1000 in
    check Alcotest.bool "in bounds" true (v >= 10 && v <= 1000)
  done

(* --- Stats -------------------------------------------------------------- *)

let stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0) (Stats.variance s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s);
  check Alcotest.int "count" 8 (Stats.count s)

let stats_empty () =
  let s = Stats.create () in
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean s))

let stats_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "q0" 1.0 (Stats.quantile xs 0.0);
  check (Alcotest.float 1e-9) "q1" 4.0 (Stats.quantile xs 1.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let stats_histogram () =
  let h = Stats.histogram ~bins:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  check Alcotest.int "bins" 4 (Array.length h.Stats.counts);
  check Alcotest.int "total count" 5
    (Array.fold_left ( + ) 0 h.Stats.counts)

let stats_reject_nan () =
  (* A NaN would silently poison the order statistics under polymorphic
     [compare] (regression: [quantile] used to sort with it); both
     whole-sample entry points refuse the sample instead. *)
  let poisoned = [| 3.0; nan; 1.0 |] in
  Alcotest.check_raises "quantile"
    (Invalid_argument "Stats.quantile: NaN in sample")
    (fun () -> ignore (Stats.quantile poisoned 0.5));
  Alcotest.check_raises "histogram"
    (Invalid_argument "Stats.histogram: NaN in sample")
    (fun () -> ignore (Stats.histogram ~bins:2 poisoned));
  (* Negative zero and infinities still sort totally. *)
  check (Alcotest.float 1e-9) "infinities fine" 1.0
    (Stats.quantile [| infinity; 1.0; neg_infinity |] 0.5);
  check (Alcotest.float 1e-9) "signed zero" 0.0
    (Stats.quantile [| 0.0; -0.0; 0.0 |] 0.5)

(* --- Vec ---------------------------------------------------------------- *)

let vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 99 (Vec.get v 99);
  check (Alcotest.option Alcotest.int) "last" (Some 99) (Vec.last v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 100))

let vec_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check (Alcotest.option Alcotest.int) "pop 3" (Some 3) (Vec.pop_last v);
  check (Alcotest.option Alcotest.int) "pop 2" (Some 2) (Vec.pop_last v);
  check Alcotest.int "length" 1 (Vec.length v);
  ignore (Vec.pop_last v);
  check (Alcotest.option Alcotest.int) "empty" None (Vec.pop_last v)

let vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  check Alcotest.(list int) "filter" [ 2; 4 ] (Vec.filter (fun x -> x mod 2 = 0) v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.(list int) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v)

(* --- Heap --------------------------------------------------------------- *)

let heap_ordering () =
  let h = Heap.of_list ~cmp:Int.compare [ 5; 3; 8; 1; 9; 2 ] in
  check (Alcotest.option Alcotest.int) "peek" (Some 1) (Heap.peek h);
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 5; 8; 9 ] (Heap.to_sorted_list h);
  check Alcotest.int "length preserved" 6 (Heap.length h)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order"
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:Int.compare xs in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* --- Trace -------------------------------------------------------------- *)

(* Strings kept whole in the string column. *)
let strings =
  { Trace.header = (fun _ -> Trace.text);
    wide = (fun _ -> 0);
    text = Fun.id;
    decode = (fun _ _ s -> s);
    blank = "" }

let trace_basics () =
  let tr = Trace.create ~codec:strings () in
  Trace.record tr 1 "a";
  Trace.record tr 5 "b";
  Trace.record tr 9 "c";
  check Alcotest.int "length" 3 (Trace.length tr);
  check Alcotest.(list (pair int string)) "between"
    [ (5, "b") ]
    (Trace.between tr 2 9);
  check Alcotest.int "count" 1 (Trace.count (String.equal "b") tr);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "find_first" (Some (1, "a"))
    (Trace.find_first (fun _ -> true) tr);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "find_last" (Some (9, "c"))
    (Trace.find_last (fun _ -> true) tr)

(* [between] is half-open [from, until): the boundary event at [until] is
   excluded, the one at [from] included, and adjacent intervals tile the
   trace without overlap. *)
let trace_between_half_open () =
  let tr = Trace.create ~codec:strings () in
  List.iter (fun t -> Trace.record tr t (string_of_int t)) [ 0; 2; 5; 9 ];
  check Alcotest.(list (pair int string)) "event at until excluded"
    [ (2, "2"); (5, "5") ]
    (Trace.between tr 2 9);
  check Alcotest.(list (pair int string)) "event at from included"
    [ (9, "9") ]
    (Trace.between tr 9 10);
  check Alcotest.(list (pair int string)) "empty interval" []
    (Trace.between tr 5 5);
  let tiled = Trace.between tr 0 5 @ Trace.between tr 5 10 in
  check Alcotest.(list (pair int string)) "adjacent intervals tile"
    (Trace.to_list tr) tiled

let trace_capacity () =
  let tr = Trace.create ~codec:strings ~capacity:2 () in
  Trace.record tr 1 "a";
  Trace.record tr 2 "b";
  Trace.record tr 3 "c";
  check Alcotest.int "bounded" 2 (Trace.length tr);
  check Alcotest.int "total" 3 (Trace.total tr);
  check Alcotest.(list string) "kept newest" [ "b"; "c" ] (Trace.events tr)

let suite =
  [ Alcotest.test_case "time: basics" `Quick time_basics;
    Alcotest.test_case "time: of_int rejects negative" `Quick
      time_of_int_rejects_negative;
    Alcotest.test_case "time: lcm" `Quick time_lcm;
    Alcotest.test_case "time: pretty printing" `Quick time_pp;
    qcheck qcheck_lcm_divides;
    Alcotest.test_case "rng: deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng: seeds differ" `Quick rng_seeds_differ;
    Alcotest.test_case "rng: split independent" `Quick rng_split_independent;
    qcheck qcheck_int_in_range;
    qcheck qcheck_uunifast;
    Alcotest.test_case "rng: exponential positive" `Quick
      rng_exponential_positive;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick
      rng_shuffle_permutation;
    Alcotest.test_case "rng: log_uniform bounds" `Quick rng_log_uniform_bounds;
    Alcotest.test_case "stats: welford" `Quick stats_welford;
    Alcotest.test_case "stats: empty" `Quick stats_empty;
    Alcotest.test_case "stats: quantile" `Quick stats_quantile;
    Alcotest.test_case "stats: histogram" `Quick stats_histogram;
    Alcotest.test_case "stats: NaN rejected" `Quick stats_reject_nan;
    Alcotest.test_case "vec: push/get" `Quick vec_push_get;
    Alcotest.test_case "vec: pop_last" `Quick vec_pop_last;
    Alcotest.test_case "vec: iteration" `Quick vec_iter_fold;
    Alcotest.test_case "heap: ordering" `Quick heap_ordering;
    qcheck qcheck_heap_sorts;
    Alcotest.test_case "trace: basics" `Quick trace_basics;
    Alcotest.test_case "trace: between is half-open" `Quick
      trace_between_half_open;
    Alcotest.test_case "trace: capacity" `Quick trace_capacity ]
