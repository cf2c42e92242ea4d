(* Splitmix64: fast, high-quality, and trivially splittable; the reference
   constants are from Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)

type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix s }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let mask = max_int in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
    let r = v mod n in
    if v - r + (n - 1) < 0 then draw () else r
  in
  draw ()

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 uniform bits scaled into [0, 1). *)
  v /. 9007199254740992.0 *. x

let exponential t mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: non-positive mean";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let log_uniform t lo hi =
  if lo <= 0 || hi < lo then invalid_arg "Rng.log_uniform: bad range";
  let llo = log (Stdlib.float_of_int lo)
  and lhi = log (Stdlib.float_of_int (hi + 1)) in
  let v = exp (llo +. float t (lhi -. llo)) in
  Int.min hi (Int.max lo (int_of_float v))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let uunifast t n u =
  if n <= 0 then invalid_arg "Rng.uunifast: need at least one task";
  let utils = Array.make n 0.0 in
  let sum = ref u in
  for i = 0 to n - 2 do
    let next = !sum *. (float t 1.0 ** (1.0 /. Stdlib.float_of_int (n - 1 - i))) in
    utils.(i) <- !sum -. next;
    sum := next
  done;
  utils.(n - 1) <- !sum;
  utils
