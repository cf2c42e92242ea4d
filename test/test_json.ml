(* The strict JSON reader every artifact check goes through: what it
   accepts and the value it reads, what it rejects and where, the typed
   field reads, and a round trip against the writers' escaper. *)

open Json_lint

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Number n -> Format.pp_print_string ppf n
  | String s -> Format.fprintf ppf "%S" s
  | Array vs -> Format.fprintf ppf "[%a]" (Format.pp_print_list pp) vs
  | Object ms ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list (fun ppf (k, v) ->
           Format.fprintf ppf "%S:%a" k pp v))
      ms

let value = Alcotest.testable pp ( = )

let accepted =
  [ ("{\"a\":{},\"b\":[[],{}]}",
     Object [ ("a", Object []); ("b", Array [ Array []; Object [] ]) ]);
    ("\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u0041\"",
     String "\" \\ / \b \012 \n \r \t A");
    ("-0.5e+3", Number "-0.5e+3");
    ("[0,-0,10]", Array [ Number "0"; Number "-0"; Number "10" ]);
    (" \t\r\n[true, false, null] \n", Array [ Bool true; Bool false; Null ]);
    ("\"\\u00e9\"", String "\xc3\xa9");
    ("\"\\ud83d\\ude00\"", String "\xf0\x9f\x98\x80");
    ("\"\\ud800x\"", String "\xef\xbf\xbdx");
    ("\"\\ud800\\u0041\"", String "\xef\xbf\xbdA");
    ("\"\\udc00\"", String "\xef\xbf\xbd");
    ("\"caf\xc3\xa9\"", String "caf\xc3\xa9") ]

let accepts () =
  List.iter
    (fun (text, expected) ->
      match parse text with
      | Ok v -> Alcotest.check value text expected v
      | Error e -> Alcotest.failf "%S rejected: %s" text e)
    accepted

let rejected =
  [ ("{\"a\":1,}", "offset 7: expected '\"'");
    ("[1,]", "offset 3: expected a JSON value");
    ("\"a\nb\"", "offset 2: raw control character");
    ("\"\\x\"", "offset 2: bad escape");
    ("\"\\u12\"", "offset 5: bad \\u escape");
    ("+1", "offset 0: expected a JSON value");
    (".5", "offset 0: expected a JSON value");
    ("tru", "offset 0: expected true");
    ("\"abc", "offset 4: unterminated string");
    ("{} x", "trailing garbage at offset 3");
    ("01", "trailing garbage at offset 1");
    ("[-01]", "offset 3: expected ']'");
    ("", "offset 0: expected a JSON value") ]

let rejects () =
  List.iter
    (fun (text, expected) ->
      Alcotest.(check (result unit string)) text (Error expected) (check text);
      Alcotest.(check bool) (text ^ " invalid") false (is_valid text))
    rejected

let reads_fields () =
  let doc =
    match
      parse
        "{\"schema\":\"x/1\",\"n\":4611686018427387903,\"f\":0.25,\
         \"ok\":true,\"rows\":[1,2],\"a\":{\"b\":{\"c\":-7}},\"n\":1}"
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "rejected: %s" e
  in
  let read conv path = Option.bind (get path doc) conv in
  Alcotest.(check (option string))
    "string" (Some "x/1") (read string [ "schema" ]);
  Alcotest.(check (option int)) "int reads back exactly, first key wins"
    (Some max_int) (read int [ "n" ]);
  Alcotest.(check (option (float 0.)))
    "float" (Some 0.25) (read float [ "f" ]);
  Alcotest.(check (option bool)) "bool" (Some true) (read bool [ "ok" ]);
  Alcotest.(check (option int)) "nested path" (Some (-7))
    (read int [ "a"; "b"; "c" ]);
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (read list [ "rows" ]));
  Alcotest.(check (option int)) "missing key" None (read int [ "a"; "x" ]);
  Alcotest.(check (option int)) "path through a scalar" None
    (read int [ "f"; "g" ]);
  Alcotest.(check (option int)) "mistyped" None (read int [ "schema" ]);
  Alcotest.(check (option int)) "a fraction is no int" None (read int [ "f" ])

(* Strings mixing quotes, backslashes, control characters and bytes of
   0x80 and above: the escaper and the reader must agree. *)
let escape_round_trip =
  let gen =
    QCheck.Gen.(
      string_size (int_bound 24)
        ~gen:
          (oneof
             [ oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\x00'; '\x1f'; '/' ];
               map Char.chr (int_range 0 0x1f);
               map Char.chr (int_range 0x80 0xff);
               printable ]))
  in
  QCheck.Test.make ~name:"json_escape round-trips through the reader"
    ~count:500 (QCheck.make ~print:String.escaped gen) (fun s ->
      parse ("\"" ^ Air_obs.Report.json_escape s ^ "\"") = Ok (String s))

let suite =
  [ Alcotest.test_case "reader: accepted inputs" `Quick accepts;
    Alcotest.test_case "reader: rejected inputs" `Quick rejects;
    Alcotest.test_case "reader: typed field reads" `Quick reads_fields;
    QCheck_alcotest.to_alcotest escape_round_trip ]
