type t = int

let zero = 0
let infinity = max_int
let is_infinite t = t = max_int

let of_int n =
  if n < 0 then invalid_arg "Time.of_int: negative tick count" else n

let add a b =
  if is_infinite a || is_infinite b then infinity
  else
    let s = a + b in
    if s < 0 then invalid_arg "Time.add: overflow" else s

let sub a b =
  if is_infinite a then infinity
  else if b >= a then 0
  else a - b

let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
(* Int comparisons, not [Stdlib.min]/[Stdlib.max]: those are polymorphic
   and end in a C call to the generic compare unless inlined, which the
   [-opaque] builds of the dev profile never do. *)
let min (a : t) (b : t) = if a <= b then a else b
let max (a : t) (b : t) = if a >= b then a else b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a <= 0 || b <= 0 then invalid_arg "Time.lcm: non-positive duration"
  else if is_infinite a || is_infinite b then
    invalid_arg "Time.lcm: infinite duration"
  else
    let g = gcd a b in
    let l = a / g * b in
    if l < 0 then invalid_arg "Time.lcm: overflow" else l

let lcm_list = function
  | [] -> invalid_arg "Time.lcm_list: empty list"
  | d :: ds -> List.fold_left lcm d ds

let pp ppf t = if is_infinite t then Format.pp_print_string ppf "∞"
  else Format.pp_print_int ppf t

let to_string t = Format.asprintf "%a" pp t
