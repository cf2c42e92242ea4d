type t = Atom of string | List of t list

type position = { line : int; column : int }

type error = { message : string; position : position }

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.position.line
    e.position.column e.message

(* The reader keeps only a byte index into the input; a failure carries the
   index, and the line and column are counted from the input's start when
   the error is reported. *)
exception Parse_error of int * string

let position_of input index =
  let line = ref 1 and column = ref 1 in
  for i = 0 to index - 1 do
    if input.[i] = '\n' then begin
      incr line;
      column := 1
    end
    else incr column
  done;
  { line = !line; column = !column }

let is_atom_char = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
  | _ -> true

(* Reads expressions from [input]; [pos] is the index of the next unread
   byte. *)
type reader = { input : string; mutable pos : int }

let fail r message = raise (Parse_error (r.pos, message))

let at_end r = r.pos >= String.length r.input

let rec skip_blanks r =
  if not (at_end r) then
    match r.input.[r.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
      r.pos <- r.pos + 1;
      skip_blanks r
    | ';' ->
      r.pos <-
        (match String.index_from_opt r.input r.pos '\n' with
        | Some eol -> eol
        | None -> String.length r.input);
      skip_blanks r
    | _ -> ()

let read_quoted r =
  r.pos <- r.pos + 1 (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end r then fail r "unterminated string";
    let c = r.input.[r.pos] in
    r.pos <- r.pos + 1;
    match c with
    | '"' -> ()
    | '\\' ->
      if at_end r then fail r "unterminated escape";
      (match r.input.[r.pos] with
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | ('"' | '\\') as c -> Buffer.add_char buf c
      | c -> fail r (Printf.sprintf "bad escape \\%c" c));
      r.pos <- r.pos + 1;
      go ()
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let read_bare r =
  let start = r.pos in
  while (not (at_end r)) && is_atom_char r.input.[r.pos] do
    r.pos <- r.pos + 1
  done;
  String.sub r.input start (r.pos - start)

let rec read_expr r =
  skip_blanks r;
  if at_end r then fail r "unexpected end of input";
  match r.input.[r.pos] with
  | '(' ->
    r.pos <- r.pos + 1;
    let rec elements acc =
      skip_blanks r;
      if at_end r then fail r "unclosed parenthesis";
      if r.input.[r.pos] = ')' then begin
        r.pos <- r.pos + 1;
        List (List.rev acc)
      end
      else elements (read_expr r :: acc)
    in
    elements []
  | ')' -> fail r "unexpected closing parenthesis"
  | '"' -> Atom (read_quoted r)
  | _ -> Atom (read_bare r)

let run input read =
  match read { input; pos = 0 } with
  | v -> Ok v
  | exception Parse_error (index, message) ->
    Error { message; position = position_of input index }

let parse input =
  run input (fun r ->
      let rec all acc =
        skip_blanks r;
        if at_end r then List.rev acc else all (read_expr r :: acc)
      in
      all [])

let parse_one input =
  run input (fun r ->
      let e = read_expr r in
      skip_blanks r;
      if at_end r then e else fail r "trailing input after expression")

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error message ->
    Error { message; position = { line = 0; column = 0 } }

let needs_quoting s =
  String.equal s "" || String.exists (fun c -> not (is_atom_char c)) s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec pp ppf = function
  | Atom a ->
    Format.pp_print_string ppf (if needs_quoting a then quote a else a)
  | List items ->
    Format.fprintf ppf "@[<hov 1>(%a)@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
      items

let to_string t = Format.asprintf "%a" pp t
