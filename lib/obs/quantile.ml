(* Log-bucketed (HDR-style) integer histogram.

   Values are assigned to buckets of geometrically growing width: the first
   16 buckets are exact (values 0..15); afterwards each power-of-two octave
   [2^k, 2^(k+1)) is split into 16 linear sub-buckets, bounding the relative
   quantile-estimation error to 1/16 (~6%). Recording is a handful of shifts
   and one array increment — no allocation, no floating point. *)

(* 16 sub-buckets per octave: values below [2^sub_bits] index directly. *)
let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 *)

(* Values are clamped to [0, limit]; ticks in any plausible run fit well
   below 2^30, and the clamp keeps the bucket array small and the index
   arithmetic safe on 32-bit [int] hosts too. *)
let limit = (1 lsl 30) - 1

(* Highest octave: msb of [limit] is bit 29 → octave index 29 - 3 = 26. *)
let bucket_count = ((29 - sub_bits + 2) * sub_count) (* 432 *)

type t = {
  counts : int array;
  mutable count : int; (* recorded values *)
  mutable total : int; (* sum of recorded (clamped) values *)
  mutable min_v : int; (* exact; meaningful when count > 0 *)
  mutable max_v : int;
}

let create () =
  { counts = Array.make bucket_count 0;
    count = 0;
    total = 0;
    min_v = 0;
    max_v = 0 }

(* Most-significant-bit index of [v] (v > 0), by binary search on shifts:
   constant time, no Sys.word_size dependence for our clamped range. *)
let msb v =
  let v = ref v and k = ref 0 in
  if !v lsr 16 > 0 then begin
    k := !k + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 > 0 then begin
    k := !k + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 > 0 then begin
    k := !k + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 > 0 then begin
    k := !k + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 > 0 then k := !k + 1;
  !k

let index_of v =
  if v < sub_count then v
  else begin
    let k = msb v in
    let octave = k - sub_bits + 1 in
    (octave * sub_count) + ((v lsr (k - sub_bits)) - sub_count)
  end

(* Inclusive upper bound of bucket [i] — the quantile estimate returned for
   ranks landing in the bucket (a conservative over-estimate within the
   bucket's ~6% width). *)
let bucket_high i =
  if i < sub_count then i
  else begin
    let octave = i / sub_count and sub = i mod sub_count in
    let k = octave + sub_bits - 1 in
    let width = 1 lsl (k - sub_bits) in
    (((sub_count + sub) * width) + width) - 1
  end

let record t v =
  let v = if v < 0 then 0 else if v > limit then limit else v in
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.total <- t.total + v

let count t = t.count
let total t = t.total
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v

let value_at t ~num ~den =
  if num < 0 || den <= 0 || num > den then
    invalid_arg "Quantile.value_at: need 0 <= num <= den, den > 0";
  if t.count = 0 then 0
  else begin
    (* Rank of the requested quantile, 1-based: ceil(count * num / den),
       clamped to at least the first recorded value. *)
    let rank = ((t.count * num) + den - 1) / den in
    let rank = if rank < 1 then 1 else rank in
    let rec walk i seen =
      if i >= bucket_count then t.max_v
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= rank then Int.min (bucket_high i) t.max_v
        else walk (i + 1) seen
      end
    in
    (* No value lies below the minimum's bucket. *)
    walk (index_of t.min_v) 0
  end

let p50 t = value_at t ~num:1 ~den:2
let p90 t = value_at t ~num:9 ~den:10
let p99 t = value_at t ~num:99 ~den:100

let merge ~into t =
  if t.count > 0 then begin
    Array.iteri
      (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
      t.counts;
    if into.count = 0 then begin
      into.min_v <- t.min_v;
      into.max_v <- t.max_v
    end
    else begin
      if t.min_v < into.min_v then into.min_v <- t.min_v;
      if t.max_v > into.max_v then into.max_v <- t.max_v
    end;
    into.count <- into.count + t.count;
    into.total <- into.total + t.total
  end

(* Every recorded value, merged ones included, lies in a bucket up to the
   maximum's. *)
let clear t =
  if t.count > 0 then Array.fill t.counts 0 (index_of t.max_v + 1) 0;
  t.count <- 0;
  t.total <- 0;
  t.min_v <- 0;
  t.max_v <- 0
