(* The suite's one "same run" assertion: two observations ({!Air.Observe})
   must be equal, or the test fails naming the first section that
   differs — and, for a trace section, the first retained event where
   the two modules' traces part, rendered on both sides. *)

open Air

(* An observation with the modules it was read from, so that section
   [m<i>.trace] can be rendered from module [i] ([trace] from the only
   one). *)
let of_system s = (Observe.system s, [| s |])
let of_cluster c = (Observe.cluster c, Cluster.systems c)

let rendered s =
  List.map
    (fun (t, ev) -> Format.asprintf "[%d] %a" t Air_model.Event.pp ev)
    (Air_sim.Trace.to_list (System.trace s))

let first_event a b =
  let rec go i = function
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | xs, ys ->
      let head = function [] -> "nothing" | e :: _ -> e in
      Printf.sprintf ": retained event %d is %s vs %s" i (head xs) (head ys)
  in
  go 0 (rendered a, rendered b)

let difference (a, ma) (b, mb) =
  Option.map
    (fun section ->
      let trace i = first_event ma.(i) mb.(i) in
      section ^ " differs"
      ^
      match Scanf.sscanf_opt section "m%u.trace%!" trace with
      | Some detail -> detail
      | None -> if section = "trace" then trace 0 else "")
    (Observe.first_difference a b)

let same ~what a b =
  Option.iter (Alcotest.failf "%s: %s" what) (difference a b)

let systems ~what a b = same ~what (of_system a) (of_system b)
let clusters ~what a b = same ~what (of_cluster a) (of_cluster b)
