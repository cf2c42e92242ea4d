(* Content lines may contain multi-byte UTF-8 (τ, χ, →); rendering pads by
   codepoint count, approximating one display column per codepoint. *)

let utf8_length s =
  let n = String.length s in
  let rec go i count =
    if i >= n then count
    else begin
      let c = Char.code s.[i] in
      let step =
        if c < 0x80 then 1
        else if c < 0xE0 then 2
        else if c < 0xF0 then 3
        else 4
      in
      go (i + step) (count + 1)
    end
  in
  go 0 0

let utf8_truncate s width =
  let n = String.length s in
  let rec go i count =
    if i >= n || count >= width then i
    else begin
      let c = Char.code s.[i] in
      let step =
        if c < 0x80 then 1
        else if c < 0xE0 then 2
        else if c < 0xF0 then 3
        else 4
      in
      go (i + step) (count + 1)
    end
  in
  String.sub s 0 (go 0 0)

let pad s width =
  let len = utf8_length s in
  if len >= width then utf8_truncate s width
  else s ^ String.make (width - len) ' '

type t = {
  title : string;
  width : int;
  height : int;
  content : string Queue.t;
}

let create ?(height = 8) ~title ~width () =
  if width <= 0 || height <= 0 then
    invalid_arg "Window.create: non-positive dimensions";
  { title; width; height; content = Queue.create () }

let push t line =
  Queue.push (utf8_truncate line t.width) t.content;
  if Queue.length t.content > t.height then ignore (Queue.pop t.content)

let push_fmt t fmt = Format.kasprintf (push t) fmt

let lines t = List.of_seq (Queue.to_seq t.content)

let render t =
  let dashes n = String.concat "" (List.init n (fun _ -> "─")) in
  let header =
    let label = utf8_truncate t.title (t.width - 2) in
    let used = utf8_length label + 2 in
    "┌─" ^ label ^ dashes (t.width - used + 1) ^ "┐"
  in
  let footer = "└" ^ dashes t.width ^ "┘" in
  let body = lines t in
  let padded =
    body @ List.init (Stdlib.max 0 (t.height - List.length body)) (fun _ -> "")
  in
  header
  :: List.map (fun line -> "│" ^ pad line t.width ^ "│") padded
  @ [ footer ]

let render_row windows =
  let rendered = List.map render windows in
  let height =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 rendered
  in
  let blank_for w = String.make (w.width + 2) ' ' in
  let row i =
    String.concat " "
      (List.map2
         (fun w r ->
           match List.nth_opt r i with
           | Some line -> line
           | None -> blank_for w)
         windows rendered)
  in
  String.concat "\n" (List.init height row)

let render_grid ~columns windows =
  if columns <= 0 then invalid_arg "Window.render_grid: no columns";
  let rec rows acc = function
    | [] -> List.rev acc
    | ws ->
      let rec take n = function
        | x :: rest when n > 0 ->
          let taken, remaining = take (n - 1) rest in
          (x :: taken, remaining)
        | rest -> ([], rest)
      in
      let row, rest = take columns ws in
      rows (render_row row :: acc) rest
  in
  String.concat "\n" (rows [] windows)
