type 'a codec = {
  header : 'a -> int;
  wide : 'a -> int;
  text : 'a -> string;
  decode : int -> int -> string -> 'a;
  blank : 'a;
}

let text = 1
let boxed = 2

(* Entry [s] of a chunk keeps its time, header and wide payload at
   [3 * s], [3 * s + 1] and [3 * s + 2] of the chunk's words. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type 'a t = {
  codec : 'a codec;
  ring : int;  (** Slots: the capacity, or [max_int] when unbounded. *)
  mutable words : int array array;
  mutable texts : string array array;
      (** Per chunk, [[||]] until the chunk holds a text. *)
  mutable boxes : 'a array array;
      (** Per chunk, [[||]] until the chunk holds a boxed value. *)
  mutable total : int;
}

let create ~codec ?capacity () =
  let ring =
    match capacity with
    | None -> max_int
    | Some c when c <= 0 ->
      invalid_arg "Trace.create: capacity must be positive"
    | Some c -> c
  in
  { codec; ring; words = [||]; texts = [||]; boxes = [||]; total = 0 }

let length t = Int.min t.total t.ring
let total t = t.total

(* Entry [i] (the [i]-th ever recorded) lives in slot [i mod ring]: a
   bounded trace overwrites its oldest entry in place. *)
let slot t i = if i < t.ring then i else i mod t.ring
let first t = t.total - length t
let chunk_size t c = Int.min chunk (t.ring - (c * chunk))

(* The chunk tables double, copying chunk pointers only, up to the ring's
   chunk count. *)
let grow t c =
  let ring_chunks = (t.ring / chunk) + if t.ring mod chunk = 0 then 0 else 1 in
  let n = Int.min ring_chunks (Int.max (c + 1) (2 * Array.length t.words)) in
  let extend a = Array.append a (Array.make (n - Array.length a) [||]) in
  t.words <- extend t.words;
  t.texts <- extend t.texts;
  t.boxes <- extend t.boxes

let column cols c ~size blank =
  let col = cols.(c) in
  if Array.length col > 0 then col
  else begin
    let col = Array.make size blank in
    cols.(c) <- col;
    col
  end

(* When a bounded trace reuses a slot, a column the new entry does not use
   is reset there, so nothing the evicted entry held outlives its slot. *)
let clear cols c s blank =
  let col = cols.(c) in
  if Array.length col > 0 then col.(s) <- blank

let record t time v =
  let p = slot t t.total in
  let c = p lsr chunk_bits and s = p land (chunk - 1) in
  if c >= Array.length t.words then grow t c;
  let size = chunk_size t c in
  let words = column t.words c ~size:(3 * size) 0 in
  let h = t.codec.header v in
  let reused = t.total >= t.ring in
  words.(3 * s) <- time;
  words.((3 * s) + 1) <- h;
  if h land boxed <> 0 then begin
    words.((3 * s) + 2) <- 0;
    (column t.boxes c ~size t.codec.blank).(s) <- v;
    if reused then clear t.texts c s ""
  end
  else begin
    words.((3 * s) + 2) <- t.codec.wide v;
    if reused then clear t.boxes c s t.codec.blank;
    if h land text <> 0 then (column t.texts c ~size "").(s) <- t.codec.text v
    else if reused then clear t.texts c s ""
  end;
  t.total <- t.total + 1

let time_at t p = t.words.(p lsr chunk_bits).(3 * (p land (chunk - 1)))

(* A fresh value for slot [p]; boxed entries are returned as kept. *)
let get t p =
  let c = p lsr chunk_bits and s = p land (chunk - 1) in
  let words = t.words.(c) in
  let h = words.((3 * s) + 1) in
  if h land boxed <> 0 then t.boxes.(c).(s)
  else
    t.codec.decode h
      words.((3 * s) + 2)
      (if h land text <> 0 then t.texts.(c).(s) else "")

let iter f t =
  for i = first t to t.total - 1 do
    let p = slot t i in
    f (time_at t p) (get t p)
  done

let fold f acc t =
  let acc = ref acc in
  for i = first t to t.total - 1 do
    let p = slot t i in
    acc := f !acc (time_at t p) (get t p)
  done;
  !acc

let count pred t =
  let n = ref 0 in
  for i = first t to t.total - 1 do
    if pred (get t (slot t i)) then incr n
  done;
  !n

(* Newest first, consing, so the list comes out oldest first. *)
let filter pred t =
  let acc = ref [] in
  for i = t.total - 1 downto first t do
    let p = slot t i in
    let time = time_at t p and v = get t p in
    if pred time v then acc := (time, v) :: !acc
  done;
  !acc

let to_list t = filter (fun _ _ -> true) t
let events t = List.map snd (to_list t)

(* Only the entries inside the interval are decoded. *)
let between t from until =
  let acc = ref [] in
  for i = t.total - 1 downto first t do
    let p = slot t i in
    let time = time_at t p in
    if Time.(from <= time) && Time.(time < until) then
      acc := (time, get t p) :: !acc
  done;
  !acc

let find t pred ~from ~stop ~step =
  let rec go i =
    if i = stop then None
    else
      let p = slot t i in
      let v = get t p in
      if pred v then Some (time_at t p, v) else go (i + step)
  in
  go from

let find_first pred t = find t pred ~from:(first t) ~stop:t.total ~step:1

let find_last pred t =
  find t pred ~from:(t.total - 1) ~stop:(first t - 1) ~step:(-1)

(* Each entry enters as its time less the previous entry's, its header and
   its wide payload, each a base-128 varint, then its text (length first)
   or the [Marshal] image of its boxed value. The stream decodes back to
   the entries, so equal digests mean equal entries; it is digested in
   pieces, so a long trace needs no image of its own. *)
let digest t =
  let pieces = Buffer.create 64 and b = Buffer.create 4096 in
  let rec varint v =
    if v lsr 7 = 0 then Buffer.add_uint8 b v
    else begin
      Buffer.add_uint8 b (v land 127 lor 128);
      varint (v lsr 7)
    end
  in
  let last = ref 0 in
  for i = first t to t.total - 1 do
    let p = slot t i in
    let c = p lsr chunk_bits and s = p land (chunk - 1) in
    let words = t.words.(c) in
    let h = words.((3 * s) + 1) in
    varint (words.(3 * s) - !last);
    last := words.(3 * s);
    varint h;
    varint words.((3 * s) + 2);
    if h land boxed <> 0 then
      Buffer.add_string b
        (Marshal.to_string t.boxes.(c).(s) [ Marshal.No_sharing ])
    else if h land text <> 0 then begin
      varint (String.length t.texts.(c).(s));
      Buffer.add_string b t.texts.(c).(s)
    end;
    if Buffer.length b >= 65536 then begin
      Buffer.add_string pieces (Digest.string (Buffer.contents b));
      Buffer.clear b
    end
  done;
  Buffer.add_string pieces (Digest.string (Buffer.contents b));
  Digest.string (Buffer.contents pieces)
