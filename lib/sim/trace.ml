type 'a codec = {
  header : 'a -> int;
  wide : 'a -> int;
  text : 'a -> string;
  decode : int -> int -> string -> 'a;
  blank : 'a;
}

let text = 1
let boxed = 2

(* Entry [i] (the [i]-th ever recorded) is entry [i mod 256] of chunk
   [i / 256]. A chunk is one [Bytes] buffer holding, entry after entry,
   base-128 varints of the time less the previous entry's, the header and
   the wide payload (0 when boxed), then, for a text entry, a varint
   length and the text itself: the stream {!digest} hashes. A boxed value
   sits in the chunk's column at the entry's index. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let mask = chunk - 1

(* A fresh buffer holds at least this many bytes: 257 words, past the
   largest block the minor heap takes, so a buffer is born in the major
   heap and no minor collection copies it. *)
let min_buffer = 2048

(* Room an entry needs besides its text: four varints of at most 9 bytes
   (time, header, wide payload, text length). *)
let entry_room = 36

type 'a t = {
  codec : 'a codec;
  ring : int;  (** Entries kept: the capacity, or [max_int] when unbounded. *)
  slots : int;  (** Chunk slots: [ceil (ring / 256) + 1], or [max_int]. *)
  mutable bufs : Bytes.t array;
      (** Per chunk slot, [Bytes.empty] until used. *)
  mutable lens : int array;  (** Bytes of each buffer the entries fill. *)
  mutable bases : int array;
      (** Time of the entry recorded before each chunk's first, 0 for the
          trace's first. *)
  mutable boxes : 'a array array;
      (** Per chunk slot, [[||]] until the chunk holds a boxed value. *)
  mutable columns : bool;  (** Some chunk has a boxed column. *)
  mutable cur : int;  (** Slot of the chunk being filled. *)
  mutable total : int;
  mutable last : Time.t;  (** Time of the newest entry, 0 before any. *)
}

let create ~codec ?capacity () =
  let ring, slots =
    match capacity with
    | None -> (max_int, max_int)
    | Some c when c <= 0 ->
      invalid_arg "Trace.create: capacity must be positive"
    | Some c -> (c, ((c + mask) lsr chunk_bits) + 1)
  in
  { codec;
    ring;
    slots;
    bufs = [||];
    lens = [||];
    bases = [||];
    boxes = [||];
    columns = false;
    cur = 0;
    total = 0;
    last = 0 }

let length t = Int.min t.total t.ring
let total t = t.total
let first t = t.total - length t

(* A bounded trace rotates over its chunk slots: the chunks of the last
   [ring] entries span at most [slots - 1] of them, plus the one being
   filled. *)
let slot t g = if g < t.slots then g else g mod t.slots

(* The chunk tables double, copying chunk pointers only, up to the slot
   count. *)
let grow t c =
  let n = Int.min t.slots (Int.max (c + 1) (2 * Array.length t.bufs)) in
  let extend a blank = Array.append a (Array.make (n - Array.length a) blank) in
  t.bufs <- extend t.bufs Bytes.empty;
  t.lens <- extend t.lens 0;
  t.bases <- extend t.bases 0;
  t.boxes <- extend t.boxes [||]

(* A chunk about to take its first entry. A slot a ring reuses keeps its
   buffer; a fresh one is sized from the previous chunk's final length, so
   steady recording allocates once per chunk. *)
let open_chunk t c =
  if c >= Array.length t.bufs then grow t c;
  if Bytes.length t.bufs.(c) = 0 then begin
    let prev =
      if t.total = 0 then 0
      else t.lens.(slot t ((t.total lsr chunk_bits) - 1))
    in
    t.bufs.(c) <- Bytes.create (Int.max min_buffer (prev + (prev lsr 3)))
  end;
  t.lens.(c) <- 0;
  t.bases.(c) <- t.last;
  t.cur <- c

(* The buffer of chunk [c], filled to [p], with room for [need] more
   bytes. An overflowing buffer is replaced by one sized for the chunk's
   projected final length, entry [s] being the one to write. *)
let room t c p need s =
  let b = t.bufs.(c) in
  if p + need <= Bytes.length b then b
  else begin
    let projected = p * chunk / Int.max 1 s in
    let b' =
      Bytes.create (Int.max (p + need) (projected + (projected lsr 3)))
    in
    Bytes.blit b 0 b' 0 p;
    t.bufs.(c) <- b';
    b'
  end

(* [room] has made space for every byte [put] writes. *)
let rec put b p v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 127 lor 128));
    put b (p + 1) (v lsr 7)
  end

(* The boxed value of an entry dies with its eviction, not when its chunk
   slot is reused. *)
let forget t i =
  let col = t.boxes.(slot t (i lsr chunk_bits)) in
  if Array.length col > 0 then col.(i land mask) <- t.codec.blank

let record t time v =
  let i = t.total in
  let s = i land mask in
  if s = 0 then open_chunk t (slot t (i lsr chunk_bits));
  if i >= t.ring && t.columns then forget t (i - t.ring);
  let c = t.cur in
  let h = t.codec.header v and p = t.lens.(c) in
  if h land boxed <> 0 then begin
    let b = room t c p entry_room s in
    let p = put b p (time - t.last) in
    let p = put b p h in
    t.lens.(c) <- put b p 0;
    if Array.length t.boxes.(c) = 0 then begin
      t.boxes.(c) <- Array.make chunk t.codec.blank;
      t.columns <- true
    end;
    t.boxes.(c).(s) <- v
  end
  else begin
    let str = if h land text <> 0 then t.codec.text v else "" in
    let n = String.length str in
    let b = room t c p (entry_room + n) s in
    let p = put b p (time - t.last) in
    let p = put b p h in
    let p = put b p (t.codec.wide v) in
    if h land text <> 0 then begin
      let p = put b p n in
      Bytes.blit_string str 0 b p n;
      t.lens.(c) <- p + n
    end
    else t.lens.(c) <- p
  end;
  t.last <- time;
  t.total <- i + 1

(* --- Reading ----------------------------------------------------------------

   A read decodes each chunk it visits forward, once, into scratch of its
   own: every entry's time, header, payload and text offset. It then visits
   the entries from there in either direction, so a list consed newest
   first comes out oldest first. Nothing of a read lives in the trace, so
   domains recording other traces share no decoder state. *)

(* Where the last varint longer than a byte ended. *)
type cursor = { mutable at : int }

(* Reads stay inside [0, lens), where {!record} wrote whole entries, so
   they skip the bounds checks. *)
let[@inline] byte b p = Char.code (Bytes.unsafe_get b p)

(* The rest of the varint at [p], its low [shift] bits being [acc]; sets
   [r.at] past it. *)
let rec long b p shift acc r =
  let x = byte b p in
  let acc = acc lor ((x land 127) lsl shift) in
  if x < 128 then begin
    r.at <- p + 1;
    acc
  end
  else long b (p + 1) (shift + 7) acc r

(* The varint at [p]. One longer than a byte decodes to at least 128 (or
   to a negative int), and [long] leaves [r.at] past it, so [after] finds
   its end with the position kept in a local. *)
let[@inline] varint b p r =
  let x = byte b p in
  if x < 128 then x else long b (p + 1) 7 (x land 127) r

let[@inline] after v p r = if v lsr 7 = 0 then p + 1 else r.at

(* Past the entry at [p], its time already read. *)
let past b p r =
  let h = varint b p r in
  let p = after h p r in
  let wide = varint b p r in
  let p = after wide p r in
  if h land (boxed lor text) = text then begin
    let n = varint b p r in
    after n p r + n
  end
  else p

(* Values are shared by equal entries: a read keeps the last value it
   decoded in each of [memo] slots, hashed by header and payload, with the
   text of a text entry. *)
let memo = 128

type 'a reader = {
  cur : cursor;
  mutable buf : Bytes.t;  (** The chunk last filled. *)
  times : int array;
  heads : int array;
  wides : int array;
  offs : int array;  (** Where each text entry's text length starts. *)
  memo_keys : int array;
  memo_texts : string array;
  memo_values : 'a array;
}

(* A decoded entry never has the [boxed] flag, so the memo starts empty. *)
let reader t =
  { cur = { at = 0 };
    buf = Bytes.empty;
    times = Array.make chunk 0;
    heads = Array.make chunk 0;
    wides = Array.make chunk 0;
    offs = Array.make chunk 0;
    memo_keys = Array.make (2 * memo) boxed;
    memo_texts = Array.make memo "";
    memo_values = Array.make memo t.codec.blank }

(* Decodes entries [0 .. s1] of chunk [c] into the reader's scratch. *)
let fill t rd c s1 =
  let r = rd.cur and b = t.bufs.(c) in
  let times = rd.times and heads = rd.heads and wides = rd.wides in
  rd.buf <- b;
  let p = ref 0 and time = ref t.bases.(c) in
  for s = 0 to s1 do
    let dt = varint b !p r in
    p := after dt !p r;
    time := !time + dt;
    let h = varint b !p r in
    p := after h !p r;
    let wide = varint b !p r in
    p := after wide !p r;
    Array.unsafe_set times s !time;
    Array.unsafe_set heads s h;
    Array.unsafe_set wides s wide;
    if h land (boxed lor text) = text then begin
      Array.unsafe_set rd.offs s !p;
      let n = varint b !p r in
      p := after n !p r + n
    end
  done

let rec same b p s i n =
  i = n
  || Char.equal (Bytes.unsafe_get b (p + i)) (String.unsafe_get s i)
     && same b p s (i + 1) n

(* The value of entry [s] of the chunk [c] last filled. A header equal to
   a memo slot's has its flags too, so only a text entry compares texts. *)
let[@inline] value t rd c s =
  let h = Array.unsafe_get rd.heads s in
  if h land boxed <> 0 then t.boxes.(c).(s)
  else begin
    let wide = Array.unsafe_get rd.wides s in
    let k = ((h + (wide * 31)) * 0x4F1BBCDCBFA53E0B) lsr 56 land (memo - 1) in
    let hit =
      Array.unsafe_get rd.memo_keys (2 * k) = h
      && Array.unsafe_get rd.memo_keys ((2 * k) + 1) = wide
    in
    if h land text = 0 then
      if hit then rd.memo_values.(k)
      else begin
        let v = t.codec.decode h wide "" in
        Array.unsafe_set rd.memo_keys (2 * k) h;
        Array.unsafe_set rd.memo_keys ((2 * k) + 1) wide;
        rd.memo_values.(k) <- v;
        v
      end
    else begin
      let r = rd.cur in
      let b = rd.buf and q = Array.unsafe_get rd.offs s in
      let n = varint b q r in
      let p = after n q r in
      let seen = rd.memo_texts.(k) in
      if hit && String.length seen = n && same b p seen 0 n then
        rd.memo_values.(k)
      else begin
        let str = Bytes.sub_string b p n in
        let v = t.codec.decode h wide str in
        Array.unsafe_set rd.memo_keys (2 * k) h;
        Array.unsafe_set rd.memo_keys ((2 * k) + 1) wide;
        rd.memo_texts.(k) <- str;
        rd.memo_values.(k) <- v;
        v
      end
    end
  end

(* [f c s0 s1 acc] folded over the chunks holding retained entries — each
   one's slot and the first and last of its entries retained — oldest
   first, or newest first with [newest]. *)
let fold_chunks ?(newest = false) t f acc =
  if t.total = 0 then acc
  else begin
    let f0 = first t and l = t.total - 1 in
    let g0 = f0 lsr chunk_bits and g1 = l lsr chunk_bits in
    let visit g acc =
      f (slot t g)
        (if g = g0 then f0 land mask else 0)
        (if g = g1 then l land mask else mask)
        acc
    in
    let acc = ref acc in
    if newest then
      for g = g1 downto g0 do
        acc := visit g !acc
      done
    else
      for g = g0 to g1 do
        acc := visit g !acc
      done;
    !acc
  end

let iter f t =
  let rd = reader t in
  fold_chunks t
    (fun c s0 s1 () ->
      fill t rd c s1;
      for s = s0 to s1 do
        f (Array.unsafe_get rd.times s) (value t rd c s)
      done)
    ()

let fold f acc t =
  let rd = reader t in
  fold_chunks t
    (fun c s0 s1 acc ->
      fill t rd c s1;
      let acc = ref acc in
      for s = s0 to s1 do
        acc := f !acc (Array.unsafe_get rd.times s) (value t rd c s)
      done;
      !acc)
    acc

let count pred t = fold (fun n _ v -> if pred v then n + 1 else n) 0 t

(* The first entry, from [s] towards [stop] by [step], whose value
   satisfies [pred]. *)
let rec search t rd c pred s stop step =
  if s = stop then None
  else
    let v = value t rd c s in
    if pred v then Some (Array.unsafe_get rd.times s, v)
    else search t rd c pred (s + step) stop step

let find_first pred t =
  let rd = reader t in
  fold_chunks t
    (fun c s0 s1 found ->
      if Option.is_some found then found
      else begin
        fill t rd c s1;
        search t rd c pred s0 (s1 + 1) 1
      end)
    None

let find_last pred t =
  let rd = reader t in
  fold_chunks ~newest:true t
    (fun c s0 s1 found ->
      if Option.is_some found then found
      else begin
        fill t rd c s1;
        search t rd c pred s1 (s0 - 1) (-1)
      end)
    None

(* Newest first, consing, so the list comes out oldest first. *)
let filter pred t =
  let rd = reader t in
  fold_chunks ~newest:true t
    (fun c s0 s1 acc ->
      fill t rd c s1;
      let acc = ref acc in
      for s = s1 downto s0 do
        let time = Array.unsafe_get rd.times s and v = value t rd c s in
        if pred time v then acc := (time, v) :: !acc
      done;
      !acc)
    []

let to_list t =
  let rd = reader t in
  fold_chunks ~newest:true t
    (fun c s0 s1 acc ->
      fill t rd c s1;
      let acc = ref acc in
      for s = s1 downto s0 do
        acc := (Array.unsafe_get rd.times s, value t rd c s) :: !acc
      done;
      !acc)
    []

let events t = List.map snd (to_list t)

(* Only the entries inside the interval are decoded. *)
let between t from until =
  let rd = reader t in
  fold_chunks ~newest:true t
    (fun c s0 s1 acc ->
      fill t rd c s1;
      let acc = ref acc in
      for s = s1 downto s0 do
        let time = Array.unsafe_get rd.times s in
        if Time.(from <= time) && Time.(time < until) then
          acc := (time, value t rd c s) :: !acc
      done;
      !acc)
    []

(* --- Digest ------------------------------------------------------------------

   The stream is digested in pieces cut after the first entry that brings a
   piece to 64 KB, so a long trace needs no image of its own; the digests
   of the pieces are digested in turn. *)

let piece_bytes = 65536

type sink = { mutable piece : Bytes.t; mutable fill : int; pieces : Buffer.t }

let reserve k n =
  if k.fill + n > Bytes.length k.piece then begin
    let p = Bytes.create (Int.max (2 * Bytes.length k.piece) (k.fill + n)) in
    Bytes.blit k.piece 0 p 0 k.fill;
    k.piece <- p
  end

let add k b off n =
  reserve k n;
  Bytes.blit b off k.piece k.fill n;
  k.fill <- k.fill + n

let cut k =
  if k.fill >= piece_bytes then begin
    Buffer.add_string k.pieces (Digest.subbytes k.piece 0 k.fill);
    k.fill <- 0
  end

(* Entries [s .. s1] of chunk [c] one by one from [p], each as stored and
   a boxed one followed by its value's [Marshal] image, cutting a piece
   wherever one is full. With [timed], [p] is already past entry [s]'s
   time. *)
let rec entries t k b r c p s s1 ~timed =
  if s <= s1 then begin
    let q = if timed then p else after (varint b p r) p r in
    let next = past b q r in
    add k b p (next - p);
    if varint b q r land boxed <> 0 then begin
      let image = Marshal.to_bytes t.boxes.(c).(s) [ Marshal.No_sharing ] in
      add k image 0 (Bytes.length image)
    end;
    cut k;
    entries t k b r c next (s + 1) s1 ~timed:false
  end

(* The stored chunks are the stream, but for the boxed images and the first
   retained entry's time, which enters less 0 rather than less an evicted
   entry's. So a chunk with no boxed column goes in whole when the piece
   cannot fill before its end; nothing is decoded but the first entry's
   time. *)
let digest t =
  let size = fold_chunks t (fun c _ _ size -> size + t.lens.(c)) 64 in
  let k =
    { piece = Bytes.create (Int.min size (piece_bytes + 4096));
      fill = 0;
      pieces = Buffer.create 64 }
  in
  let r = { at = 0 } in
  let (_ : bool) =
    fold_chunks t
      (fun c s0 s1 oldest ->
        let b = t.bufs.(c) and p = ref 0 in
        if oldest then begin
          let time = ref t.bases.(c) in
          for _ = 1 to s0 do
            let dt = varint b !p r in
            time := !time + dt;
            p := past b (after dt !p r) r
          done;
          let dt = varint b !p r in
          reserve k 9;
          k.fill <- put k.piece k.fill (!time + dt);
          p := after dt !p r
        end;
        let rest = t.lens.(c) - !p in
        if Array.length t.boxes.(c) = 0 && k.fill + rest < piece_bytes then
          add k b !p rest
        else entries t k b r c !p s0 s1 ~timed:oldest;
        false)
      true
  in
  Buffer.add_string k.pieces (Digest.subbytes k.piece 0 k.fill);
  Digest.string (Buffer.contents k.pieces)
