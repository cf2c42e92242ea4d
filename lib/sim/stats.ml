type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let min t = t.min
let max t = t.max

(* NaN poisons order statistics silently: polymorphic [compare] leaves it
   wherever it started, and any comparison against it lies. Both
   whole-sample entry points reject it up front instead. *)
let reject_nan ~what xs =
  Array.iter
    (fun x ->
      if Float.is_nan x then
        invalid_arg (Printf.sprintf "Stats.%s: NaN in sample" what))
    xs

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  reject_nan ~what:"quantile" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i >= n - 1 then sorted.(n - 1)
      (* No interpolation on an exact order statistic: 0 * (next - cur)
         is NaN when a neighbour is infinite. *)
    else if frac = 0.0 then sorted.(i)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let median xs = quantile xs 0.5

type histogram = { lo : float; width : float; counts : int array }

let histogram ~bins xs =
  if bins < 1 then invalid_arg "Stats.histogram: need at least one bin";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty sample";
  reject_nan ~what:"histogram" xs;
  let lo = Array.fold_left Stdlib.min xs.(0) xs in
  let hi = Array.fold_left Stdlib.max xs.(0) xs in
  let span = hi -. lo in
  let width = if span = 0.0 then 1.0 else span /. float_of_int bins in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = Int.min (bins - 1) (Int.max 0 i) in
      counts.(i) <- counts.(i) + 1)
    xs;
  { lo; width; counts }
