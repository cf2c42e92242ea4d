(* Helpers of the standalone artifact validators: report a problem and
   exit 1, read a file, parse an artifact and read a typed field of it by
   path. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error m -> fail "%s" m

(* [what] names the artifact in messages: a path or a description. *)
let parse what text =
  match Json_lint.parse text with
  | Ok v -> v
  | Error e -> fail "%s: invalid JSON: %s" what e

let field what conv v path =
  match Option.bind (Json_lint.get path v) conv with
  | Some x -> x
  | None ->
    fail "%s: missing or mistyped field %s" what (String.concat "." path)

let schema what v expected =
  let got = field what Json_lint.string v [ "schema" ] in
  if not (String.equal got expected) then
    fail "%s: schema %S, expected %S" what got expected
