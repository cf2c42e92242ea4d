(* A strict JSON reader for the artifacts our hand-rolled writers produce
   (metrics snapshots, Chrome traces, telemetry, campaign reports, bench
   results). It accepts exactly RFC 8259 grammar — no extensions, no
   trailing commas — and reports the offset of the first error. Numbers
   keep their lexeme, so an integer reads back exactly; [\uXXXX] escapes
   decode to UTF-8, a lone surrogate to U+FFFD. *)

type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

type state = { s : string; mutable i : int }

exception Bad of int * string

let error st msg = raise (Bad (st.i, msg))
let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    && (match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.i <- st.i + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.i <- st.i + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    v
  end
  else error st ("expected " ^ word)

(* The four hex digits after [\u]; [st.i] is on the first. *)
let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F' as c) ->
      v := (!v * 16) + int_of_string (Printf.sprintf "0x%c" c)
    | _ -> error st "bad \\u escape");
    st.i <- st.i + 1
  done;
  !v

(* A high surrogate pairs with an immediately following [\uDC00]–[\uDFFF]
   escape, which is consumed; anything else leaves it alone. *)
let low_surrogate st =
  let save = st.i in
  match
    expect st '\\';
    expect st 'u';
    hex4 st
  with
  | lo when lo land 0xFC00 = 0xDC00 -> Some lo
  | _ | (exception Bad _) ->
    st.i <- save;
    None

let unescape = function
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | c -> c

let string_ st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.i <- st.i + 1
    | Some '\\' -> (
      st.i <- st.i + 1;
      match peek st with
      | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' as c) ->
        Buffer.add_char buf (unescape c);
        st.i <- st.i + 1;
        go ()
      | Some 'u' ->
        st.i <- st.i + 1;
        let code = hex4 st in
        let code =
          match code land 0xFC00 with
          | 0xD800 -> (
            match low_surrogate st with
            | Some lo -> 0x10000 + ((code - 0xD800) lsl 10) + lo - 0xDC00
            | None -> 0xFFFD)
          | 0xDC00 -> 0xFFFD
          | _ -> code
        in
        Buffer.add_utf_8_uchar buf (Uchar.of_int code);
        go ()
      | _ -> error st "bad escape")
    | Some c when Char.code c < 0x20 -> error st "raw control character"
    | Some c ->
      Buffer.add_char buf c;
      st.i <- st.i + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let number st =
  let start = st.i in
  if peek st = Some '-' then st.i <- st.i + 1;
  let digits () =
    let start = st.i in
    while
      match peek st with Some '0' .. '9' -> true | _ -> false
    do
      st.i <- st.i + 1
    done;
    if st.i = start then error st "expected digit"
  in
  (* An integer part that starts with 0 is just 0. *)
  if peek st = Some '0' then st.i <- st.i + 1 else digits ();
  if peek st = Some '.' then begin
    st.i <- st.i + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    st.i <- st.i + 1;
    (match peek st with
    | Some ('+' | '-') -> st.i <- st.i + 1
    | _ -> ());
    digits ()
  | _ -> ());
  Number (String.sub st.s start (st.i - start))

(* The comma-separated items of an array or object, up to [close]; the
   opening bracket is consumed. *)
let items st close item =
  skip_ws st;
  if peek st = Some close then begin
    st.i <- st.i + 1;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws st;
      match peek st with
      | Some ',' ->
        st.i <- st.i + 1;
        go acc
      | _ ->
        expect st close;
        List.rev acc
    in
    go []

let rec value st =
  skip_ws st;
  match peek st with
  | Some '{' ->
    st.i <- st.i + 1;
    Object
      (items st '}' (fun () ->
           skip_ws st;
           let key = string_ st in
           skip_ws st;
           expect st ':';
           (key, value st)))
  | Some '[' ->
    st.i <- st.i + 1;
    Array (items st ']' (fun () -> value st))
  | Some '"' -> String (string_ st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> number st
  | _ -> error st "expected a JSON value"

let parse text =
  let st = { s = text; i = 0 } in
  match value st with
  | v ->
    skip_ws st;
    if st.i <> String.length text then
      Error (Printf.sprintf "trailing garbage at offset %d" st.i)
    else Ok v
  | exception Bad (i, msg) -> Error (Printf.sprintf "offset %d: %s" i msg)

let check text = Result.map ignore (parse text)
let is_valid text = Result.is_ok (parse text)

(* --- Reading a parsed value ---------------------------------------------- *)

(* The value at a path of object keys; the first member wins when a key
   repeats. *)
let rec get path v =
  match (path, v) with
  | [], v -> Some v
  | key :: rest, Object members ->
    Option.bind (List.assoc_opt key members) (get rest)
  | _ :: _, _ -> None

let int = function Number n -> int_of_string_opt n | _ -> None
let float = function Number n -> float_of_string_opt n | _ -> None
let string = function String s -> Some s | _ -> None
let bool = function Bool b -> Some b | _ -> None
let list = function Array vs -> Some vs | _ -> None
