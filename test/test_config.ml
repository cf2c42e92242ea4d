(* Tests for the configuration language: s-expression parsing/printing and
   the system loader. *)

open Air_config

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Sexp ----------------------------------------------------------------- *)

let parse_basics () =
  (match Sexp.parse_one "(a b (c d) \"e f\")" with
  | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b"; Sexp.List [ Sexp.Atom "c"; Sexp.Atom "d" ]; Sexp.Atom "e f" ]) ->
    ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse error: %a" Sexp.pp_error e);
  (match Sexp.parse "a (b) ; comment\n c" with
  | Ok [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b" ]; Sexp.Atom "c" ] -> ()
  | _ -> Alcotest.fail "toplevel parse")

let parse_strings_and_escapes () =
  match Sexp.parse_one {|"line\nbreak \"quoted\" back\\slash"|} with
  | Ok (Sexp.Atom s) ->
    check Alcotest.string "unescaped" "line\nbreak \"quoted\" back\\slash" s
  | _ -> Alcotest.fail "string parse"

let parse_errors_have_positions () =
  (match Sexp.parse_one "(a (b)" with
  | Error e -> check Alcotest.bool "line 1" true (e.Sexp.position.Sexp.line = 1)
  | Ok _ -> Alcotest.fail "expected error");
  (match Sexp.parse_one "(a\n))" with
  | Error e -> check Alcotest.int "line 2" 2 e.Sexp.position.Sexp.line
  | Ok _ -> Alcotest.fail "expected error");
  match Sexp.parse_one "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let sexp_gen =
  let open QCheck.Gen in
  let atom_gen =
    oneof
      [ map (fun n -> Sexp.Atom (string_of_int n)) small_nat;
        oneofl
          [ Sexp.Atom "word"; Sexp.Atom "two words"; Sexp.Atom "with\"quote";
            Sexp.Atom ""; Sexp.Atom "tab\there" ] ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then atom_gen
         else
           frequency
             [ (2, atom_gen);
               (3, map (fun l -> Sexp.List l) (list_size (int_range 0 4) (self (n / 2)))) ]))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:300
    (QCheck.make sexp_gen) (fun s ->
      match Sexp.parse_one (Sexp.to_string s) with
      | Ok s' -> s = s'
      | Error _ -> false)

(* --- Decode ---------------------------------------------------------------- *)

let decode_fields () =
  let open Decode in
  let input =
    match Sexp.parse "(name X) (count 4)" with Ok l -> l | Error _ -> []
  in
  (match fields_of ~context:"t" input with
  | Ok f ->
    check Alcotest.bool "required" true (required f "name" (one atom) = Ok "X");
    check Alcotest.bool "int" true (required f "count" (one int) = Ok 4);
    check Alcotest.bool "missing" true (Result.is_error (required f "nope" (one atom)));
    check Alcotest.bool "optional missing" true
      (optional f "nope" (one atom) = Ok None);
    check Alcotest.bool "unknown rejected" true
      (Result.is_error (assert_no_extra f ~known:[ "name" ]))
  | Error e -> Alcotest.fail e);
  (* Duplicate fields rejected. *)
  match Sexp.parse "(a 1) (a 2)" with
  | Ok l -> check Alcotest.bool "dup" true (Result.is_error (fields_of ~context:"t" l))
  | Error _ -> Alcotest.fail "parse"

let decode_time_values () =
  let open Decode in
  check Alcotest.bool "ticks" true (time (Sexp.Atom "120") = Ok 120);
  check Alcotest.bool "infinite" true
    (time (Sexp.Atom "infinite") = Ok Air_sim.Time.infinity);
  check Alcotest.bool "poll" true (timeout (Sexp.Atom "poll") = Ok 0);
  check Alcotest.bool "negative rejected" true
    (Result.is_error (time (Sexp.Atom "-3")))

(* --- Loader ----------------------------------------------------------------- *)

let full_doc = {|
; A two-partition system exercising most of the grammar.
(air-system
  (partitions
    (partition (name CTRL) (kind system) (deadline-store avl-tree)
      (processes
        (process (name loop) (period 100) (capacity 100) (wcet 30) (priority 5)
          (script (compute 30) (log "tick") (periodic-wait)))
        (process (name fallback) (period (sporadic 500)) (autostart false))))
    (partition (name GUEST) (policy (round-robin 3))
      (processes
        (process (name busy) (script (compute 1000000)))
        (process (name chat)
          (script (send-queuing OUT "hello") (timed-wait 50))))))
  (schedules
    (schedule (name day) (mtf 200)
      (requirements (req (partition CTRL) (cycle 100) (duration 40))
                    (req (partition GUEST) (cycle 200) (duration 100)))
      (windows (window (partition CTRL) (offset 0) (duration 40))
               (window (partition GUEST) (offset 40) (duration 100))
               (window (partition CTRL) (offset 140) (duration 40))))
    (schedule (name night) (mtf 200)
      (requirements (req (partition CTRL) (cycle 100) (duration 40)))
      (change-actions (CTRL warm-restart))
      (windows (window (partition CTRL) (offset 0) (duration 40))
               (window (partition CTRL) (offset 100) (duration 40)))))
  (ports
    (queuing-port (name OUT) (partition GUEST) (direction source) (depth 4) (max-size 32))
    (queuing-port (name IN) (partition CTRL) (direction destination) (depth 4) (max-size 32)))
  (channels (channel (source OUT) (destinations IN)))
  (hm
    (process-errors (CTRL deadline-missed stop-process)
                    (GUEST application-error (log-then 3 restart-process)))
    (partition-errors (GUEST memory-violation cold-restart))
    (module-errors (power-failure shutdown))))
|}

let loader_full_document () =
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let s = Air.System.create cfg in
    Air.System.run s ~ticks:600;
    check Alcotest.bool "runs" true (Air.System.halted s = None);
    check Alcotest.int "two partitions" 2 (Air.System.partition_count s);
    (* Traffic flowed through the declared channel. *)
    let stats = Air_ipc.Router.stats (Air.System.router s) in
    check Alcotest.bool "messages" true (stats.Air_ipc.Router.messages_sent > 0)

let loader_resolves_names () =
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    (match cfg.Air.System.schedules with
    | [ day; night ] ->
      check Alcotest.string "day" "day" day.Air_model.Schedule.name;
      check Alcotest.bool "night change action" true
        (Air_model.Schedule.change_action_for night
           (Air_model.Ident.Partition_id.make 0)
         = Air_model.Schedule.Warm_restart_partition)
    | _ -> Alcotest.fail "two schedules");
    check Alcotest.int "partitions" 2 (List.length cfg.Air.System.partitions)

let loader_rejects_bad_docs () =
  let cases =
    [ ("unknown partition in window",
       {|(air-system
          (partitions (partition (name A) (processes)))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition NOPE) (cycle 10) (duration 1)))
            (windows))))|});
      ("unknown action",
       {|(air-system
          (partitions (partition (name A)
            (processes (process (name p) (script (explode))))))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition A) (cycle 10) (duration 1)))
            (windows (window (partition A) (offset 0) (duration 1))))))|});
      ("unknown field",
       {|(air-system (warp-drive on)
          (partitions (partition (name A) (processes)))
          (schedules))|});
      ("unknown schedule in request",
       {|(air-system
          (partitions (partition (name A)
            (processes (process (name p) (script (request-schedule ghost))))))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition A) (cycle 10) (duration 1)))
            (windows (window (partition A) (offset 0) (duration 1))))))|}) ]
  in
  List.iter
    (fun (name, doc) ->
      check Alcotest.bool name true (Result.is_error (Loader.load doc)))
    cases

let roundtrip_fixpoint () =
  (* decode → encode → decode → encode must be a fixpoint. *)
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let doc1 = Encode.to_string cfg in
    (match Loader.load doc1 with
    | Error e -> Alcotest.failf "re-load failed: %s" e
    | Ok cfg' ->
      let doc2 = Encode.to_string cfg' in
      check Alcotest.string "fixpoint" doc1 doc2)

let roundtrip_preserves_behaviour () =
  let run cfg =
    let s = Air.System.create cfg in
    Air.System.run s ~ticks:800;
    s
  in
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg -> (
    match Loader.load (Encode.to_string cfg) with
    | Error e -> Alcotest.failf "re-load failed: %s" e
    | Ok cfg' ->
      Observed.systems ~what:"same observable behaviour" (run cfg) (run cfg'))

let satellite_config_roundtrips () =
  (* The programmatically built prototype survives encode → load. *)
  let cfg = Air_workload.Satellite.config () in
  let doc = Encode.to_string cfg in
  match Loader.load doc with
  | Error e -> Alcotest.failf "load of encoded satellite failed: %s" e
  | Ok cfg' ->
    check Alcotest.string "fixpoint" doc (Encode.to_string cfg');
    let s = Air.System.create cfg' in
    Air.System.run_mtfs s 2;
    check Alcotest.int "clean run" 0 (List.length (Air.System.violations s))

(* A "*" in the partition position of an hm entry decodes to a wildcard
   default, and the wildcard survives the encode → load round-trip. *)
let hm_wildcard_roundtrips () =
  let doc =
    {|(air-system
       (partitions (partition (name A)
         (processes (process (name p) (script (compute 5) (periodic-wait))
           (period 10) (capacity 10) (wcet 5) (priority 1)))))
       (schedules (schedule (name s) (mtf 10)
         (requirements (req (partition A) (cycle 10) (duration 10)))
         (windows (window (partition A) (offset 0) (duration 10)))))
       (hm
         (process-errors (* deadline-missed stop-process)
                         (A application-error restart-process))
         (partition-errors (* memory-violation warm-restart))))|}
  in
  match Loader.load doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let tables = cfg.Air.System.hm_tables in
    check Alcotest.int "one wildcard process default" 1
      (List.length tables.Air.Hm.process_defaults);
    check Alcotest.int "one specific process entry" 1
      (List.length tables.Air.Hm.process_actions);
    check Alcotest.int "one wildcard partition default" 1
      (List.length tables.Air.Hm.partition_defaults);
    (match Loader.load (Encode.to_string cfg) with
    | Error e -> Alcotest.failf "re-load failed: %s" e
    | Ok cfg' ->
      check Alcotest.bool "wildcards survive round-trip" true
        (cfg'.Air.System.hm_tables = tables))

let loader_syntax_error_reported () =
  match Loader.load "(air-system (partitions" with
  | Error e -> check Alcotest.bool "mentions position" true
      (Astring_contains.contains e "line")
  | Ok _ -> Alcotest.fail "expected syntax error"

(* --- Shipped documents under mutation ------------------------------------- *)

let config_path doc = Filename.concat "../examples/configs" doc

let read_text path = In_channel.with_open_text path In_channel.input_all

(* [s] with the first occurrence of [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  match Astring_contains.find s sub with
  | None -> Alcotest.failf "fixture lacks %s" sub
  | Some i ->
    let n = String.length sub in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Library constructors reject these values with [Invalid_argument]; the
   loader must return the rejection as an error naming the form. *)
let loader_returns_constructor_errors () =
  let leo = read_text (config_path "leo_satellite.air") in
  List.iter
    (fun (sub, by, form) ->
      match Loader.load (replace_first ~sub ~by leo) with
      | Error e ->
        check Alcotest.bool (by ^ " names " ^ form) true
          (Astring_contains.contains e form)
      | Ok _ -> Alcotest.failf "%s accepted" by
      | exception e -> Alcotest.failf "%s raised %s" by (Printexc.to_string e))
    [ ("(mtf 2000)", "(mtf 0)", "schedule nominal");
      ("(offset 0) (duration 150)", "(offset 0) (duration 0)",
       "schedule nominal");
      ("(depth 8)", "(depth 0)", "queuing-port FRAMES");
      ("(max-size 64)", "(max-size 0)", "sampling-port ATT_OUT");
      ("(refresh 2000)", "(refresh 0)", "sampling-port ATT_OUT") ]

(* A port form accepts its own fields only: a queuing port has no refresh
   period, and a misspelt max-size must not silently keep the default. *)
let loader_rejects_unknown_port_fields () =
  let leo = read_text (config_path "leo_satellite.air") in
  List.iter
    (fun (sub, by, want) ->
      match Loader.load (replace_first ~sub ~by leo) with
      | Error e -> check Alcotest.string by want e
      | Ok _ -> Alcotest.failf "%s accepted" by)
    [ ("(depth 8)", "(depth 8) (refresh 5)",
       "queuing-port: unknown field refresh");
      ("(max-size 64)", "(max-szie 128)",
       "sampling-port: unknown field max-szie") ]

(* An unknown keyword is reported with its field path and the table's
   keywords. *)
let loader_lists_keywords () =
  match
    Loader.load
      (replace_first ~sub:"(deadline-store avl-tree)"
         ~by:"(deadline-store heap)" full_doc)
  with
  | Error e ->
    check Alcotest.string "message"
      "partition.deadline-store: expected linked-list | avl-tree | \
       pairing-heap, got heap"
      e
  | Ok _ -> Alcotest.fail "unknown deadline store accepted"

(* A module [System.create] rejects (two windows overlapping, eq. (21))
   fails a cluster or fleet load with an error, not an exception. *)
let multi_module_loads_return_errors () =
  let dir = Filename.temp_dir "air_config" "" in
  let path name = Filename.concat dir name in
  let files =
    [ ( "bad.air",
        replace_first ~sub:"(offset 150) (duration 350)"
          ~by:"(offset 100) (duration 350)"
          (read_text (config_path "leo_satellite.air")) );
      ( "cluster.air",
        {|(air-cluster (modules (module (name a) (config "bad.air"))
                                (module (name b) (config "bad.air"))))|} );
      ("fleet.air", {|(air-fleet (template "bad.air") (modules 2))|}) ]
  in
  let remove () =
    List.iter (fun (name, _) -> Sys.remove (path name)) files;
    Sys.rmdir dir
  in
  Fun.protect ~finally:remove @@ fun () ->
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_text (path name) (fun oc ->
          Out_channel.output_string oc text))
    files;
  (match Loader.load_cluster_file (path "cluster.air") with
  | Error e ->
    check Alcotest.bool "cluster error names the module" true
      (Astring_contains.contains e "module a")
  | Ok _ -> Alcotest.fail "cluster of invalid modules accepted"
  | exception e -> Alcotest.failf "cluster raised %s" (Printexc.to_string e));
  match Loader.load_fleet_file (path "fleet.air") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fleet of invalid modules accepted"
  | exception e -> Alcotest.failf "fleet raised %s" (Printexc.to_string e)

(* Encode writes (cores N) and (causal (retention N)), so a load → encode
   → load round trip keeps a two-core module on two lanes. *)
let encode_keeps_cores_and_causal () =
  let leo = read_text (config_path "leo_satellite.air") in
  let doc =
    replace_first ~sub:"(air-system"
      ~by:"(air-system (cores 2) (causal (retention 128))" leo
  in
  match Loader.load doc with
  | Error e -> Alcotest.fail e
  | Ok cfg -> (
    match Loader.load (Encode.to_string cfg) with
    | Error e -> Alcotest.failf "re-load failed: %s" e
    | Ok cfg' ->
      check Alcotest.(option int) "cores" (Some 2) cfg'.Air.System.cores;
      check Alcotest.(option int) "causal retention" (Some 128)
        (Option.map Air_obs.Causal.capacity cfg'.Air.System.causal))

(* Seeded structural mutations of the shipped module documents. At one
   random node an atom becomes 0, -1, a large prime, [infinite] or a
   misspelling, or a list drops, duplicates, reverses or loses its
   children. Every mutant must load without raising. An accepted mutant
   must re-encode to a fixpoint that keeps its core count and causal
   retention, and [System.create] may reject it only with
   [Invalid_argument]. (The prime keeps eq. (23)'s per-cycle check, which
   runs MTF/cycle times, short.) *)
let fuzz_documents =
  [ "leo_satellite.air"; "payload.air"; "platform.air";
    "constellation_node.air" ]

let fuzz_mutants_per_document = 250

let rec sexp_size = function
  | Sexp.Atom _ -> 1
  | Sexp.List l -> List.fold_left (fun n s -> n + sexp_size s) 1 l

let mutate rng doc =
  let pick l = List.nth l (Air_sim.Rng.int rng (List.length l)) in
  let change = function
    | Sexp.Atom a ->
      Sexp.Atom (pick [ "0"; "-1"; "999999937"; "infinite"; a ^ "x" ])
    | Sexp.List [] -> Sexp.List []
    | Sexp.List l -> (
      let i = Air_sim.Rng.int rng (List.length l) in
      match Air_sim.Rng.int rng 4 with
      | 0 -> Sexp.List (List.filteri (fun j _ -> j <> i) l)
      | 1 ->
        Sexp.List
          (List.concat
             (List.mapi (fun j s -> if j = i then [ s; s ] else [ s ]) l))
      | 2 -> Sexp.List (List.rev l)
      | _ -> Sexp.List [])
  in
  let target = Air_sim.Rng.int rng (sexp_size doc) in
  let next = ref 0 in
  let rec walk s =
    let here = !next in
    incr next;
    if here = target then change s
    else
      match s with
      | Sexp.Atom _ -> s
      | Sexp.List l -> Sexp.List (List.map walk l)
  in
  walk doc

let fuzz_check text =
  let escaped what e =
    Alcotest.failf "%s raised %s on mutant:\n%s" what (Printexc.to_string e)
      text
  in
  match Loader.load text with
  | exception e -> escaped "Loader.load" e
  | Error _ -> ()
  | Ok cfg -> (
    let doc1 = Encode.to_string cfg in
    (match Loader.load doc1 with
    | exception e -> escaped "re-load" e
    | Error e -> Alcotest.failf "re-load failed: %s\n%s" e doc1
    | Ok cfg' ->
      check Alcotest.string "encode fixpoint" doc1 (Encode.to_string cfg');
      check Alcotest.(option int) "cores kept" cfg.Air.System.cores
        cfg'.Air.System.cores;
      check Alcotest.(option int) "causal kept"
        (Option.map Air_obs.Causal.capacity cfg.Air.System.causal)
        (Option.map Air_obs.Causal.capacity cfg'.Air.System.causal));
    match Air.System.create cfg with
    | _ -> ()
    | exception Invalid_argument _ -> ()
    | exception e -> escaped "System.create" e)

let grammar_fuzz () =
  List.iteri
    (fun k name ->
      let doc =
        match Sexp.parse_file (config_path name) with
        | Ok [ doc ] -> doc
        | Ok _ | Error _ -> Alcotest.failf "%s: not one form" name
      in
      let rng = Air_sim.Rng.create (0xA17 + k) in
      for _ = 1 to fuzz_mutants_per_document do
        fuzz_check (Sexp.to_string (mutate rng doc))
      done)
    fuzz_documents

let suite =
  [ Alcotest.test_case "sexp: parse basics" `Quick parse_basics;
    Alcotest.test_case "sexp: strings and escapes" `Quick
      parse_strings_and_escapes;
    Alcotest.test_case "sexp: errors carry positions" `Quick
      parse_errors_have_positions;
    qcheck qcheck_roundtrip;
    Alcotest.test_case "decode: fields" `Quick decode_fields;
    Alcotest.test_case "decode: time values" `Quick decode_time_values;
    Alcotest.test_case "loader: full document" `Quick loader_full_document;
    Alcotest.test_case "loader: resolves names" `Quick loader_resolves_names;
    Alcotest.test_case "loader: rejects bad documents" `Quick
      loader_rejects_bad_docs;
    Alcotest.test_case "encode/load round-trip fixpoint" `Quick
      roundtrip_fixpoint;
    Alcotest.test_case "round-trip preserves behaviour" `Quick
      roundtrip_preserves_behaviour;
    Alcotest.test_case "satellite config round-trips" `Quick
      satellite_config_roundtrips;
    Alcotest.test_case "hm wildcard round-trips" `Quick
      hm_wildcard_roundtrips;
    Alcotest.test_case "loader: syntax errors reported" `Quick
      loader_syntax_error_reported;
    Alcotest.test_case "loader: constructor rejections are errors" `Quick
      loader_returns_constructor_errors;
    Alcotest.test_case "loader: port forms reject unknown fields" `Quick
      loader_rejects_unknown_port_fields;
    Alcotest.test_case "loader: keyword errors list the table" `Quick
      loader_lists_keywords;
    Alcotest.test_case "loader: cluster and fleet modules rejected" `Quick
      multi_module_loads_return_errors;
    Alcotest.test_case "encode keeps cores and causal" `Quick
      encode_keeps_cores_and_causal;
    Alcotest.test_case "grammar fuzz: shipped documents" `Quick grammar_fuzz ]
