(* A bounded record ring stored as flat columns: [ints] int fields and
   [strings] string fields per slot, slot [s] owning the column ranges
   starting at [s * ints] and [s * strings]. The columns start empty and
   double, up to the bound, when a push finds them full; until then the
   retained slots sit in [0, len), so growth is one prefix blit. At the
   bound the ring overwrites its oldest slot in place. *)

type t = {
  bound : int;
  ints : int;
  strings : int;
  mutable int_col : int array;
  mutable string_col : string array;
  mutable slots : int;
  mutable next : int;
  mutable len : int;
  mutable total : int;
}

let create ?bound ~ints ~strings () =
  let bound =
    match bound with
    | Some b when b <= 0 -> invalid_arg "Ring.create: bound must be positive"
    | Some b -> b
    | None -> max_int
  in
  { bound;
    ints;
    strings;
    int_col = [||];
    string_col = [||];
    slots = 0;
    next = 0;
    len = 0;
    total = 0 }

let first_slots = 16

let grow t =
  let slots = Int.min t.bound (Int.max first_slots (2 * t.slots)) in
  let int_col = Array.make (slots * t.ints) 0 in
  Array.blit t.int_col 0 int_col 0 (t.slots * t.ints);
  t.int_col <- int_col;
  if t.strings > 0 then begin
    let string_col = Array.make (slots * t.strings) "" in
    Array.blit t.string_col 0 string_col 0 (t.slots * t.strings);
    t.string_col <- string_col
  end;
  t.slots <- slots

(* [next] reaches [slots] only while the columns are below the bound: at
   the bound it wraps to 0 instead. *)
let push t =
  if t.next = t.slots then grow t;
  let slot = t.next in
  t.next <- (if slot + 1 = t.bound then 0 else slot + 1);
  if t.len < t.bound then t.len <- t.len + 1;
  t.total <- t.total + 1;
  slot

let slot t i =
  let s = t.next - t.len + i in
  if s < 0 then s + t.slots else s

let length t = t.len
let total t = t.total
let dropped t = t.total - t.len
