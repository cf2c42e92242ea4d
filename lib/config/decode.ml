type 'a t = ('a, string) result

let ( let* ) = Result.bind

let error fmt = Format.kasprintf (fun s -> Error s) fmt

let map_all f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with
      | Ok y -> go (y :: acc) rest
      | Error _ as e -> e)
  in
  go [] items

let tagged tag = function
  | Sexp.List (Sexp.Atom a :: rest) when String.equal a tag -> Ok rest
  | s -> error "expected (%s …), got %s" tag (Sexp.to_string s)

let tag_of = function
  | Sexp.List (Sexp.Atom a :: rest) -> Ok (a, rest)
  | s -> error "expected a tagged form, got %s" (Sexp.to_string s)

type fields = {
  context : string;
  entries : (string * Sexp.t list) list;
}

let fields_of ~context items =
  let* entries =
    map_all
      (fun item ->
        let* tag, rest = tag_of item in
        Ok (tag, rest))
      items
  in
  let rec dup_check seen = function
    | [] -> Ok ()
    | (name, _) :: rest ->
      if List.mem name seen then
        error "%s: duplicate field %s" context name
      else dup_check (name :: seen) rest
  in
  let* () = dup_check [] entries in
  Ok { context; entries }

let required f name decode =
  match List.assoc_opt name f.entries with
  | Some args -> (
    match decode args with
    | Ok v -> Ok v
    | Error e -> error "%s.%s: %s" f.context name e)
  | None -> error "%s: missing field %s" f.context name

let optional f name decode =
  match List.assoc_opt name f.entries with
  | None -> Ok None
  | Some args -> (
    match decode args with
    | Ok v -> Ok (Some v)
    | Error e -> error "%s.%s: %s" f.context name e)

let with_default f name decode default =
  let* v = optional f name decode in
  Ok (Option.value ~default v)

let rest_of f name = Option.value ~default:[] (List.assoc_opt name f.entries)

let assert_no_extra f ~known =
  let rec go = function
    | [] -> Ok ()
    | (name, _) :: rest ->
      if List.mem name known then go rest
      else error "%s: unknown field %s" f.context name
  in
  go f.entries

let one decode = function
  | [ x ] -> decode x
  | args -> error "expected one value, got %d" (List.length args)

let many decode args = map_all decode args

let atom = function
  | Sexp.Atom a -> Ok a
  | Sexp.List _ as s -> error "expected an atom, got %s" (Sexp.to_string s)

let int s =
  let* a = atom s in
  match int_of_string_opt a with
  | Some n -> Ok n
  | None -> error "expected an integer, got %s" a

let keyword table s =
  let* a = atom s in
  match List.assoc_opt a table with
  | Some v -> Ok v
  | None ->
    error "expected %s, got %s" (String.concat " | " (List.map fst table)) a

let time s =
  let* a = atom s in
  match a with
  | "infinite" | "infinity" -> Ok Air_sim.Time.infinity
  | _ -> (
    match int_of_string_opt a with
    | Some n when n >= 0 -> Ok n
    | Some _ -> error "negative tick count %s" a
    | None -> error "expected ticks or 'infinite', got %s" a)

let timeout s =
  match atom s with
  | Ok "poll" -> Ok Air_sim.Time.zero
  | _ -> time s
