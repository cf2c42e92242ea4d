(* Tests for interpartition communication: port network validation and the
   runtime router's sampling/queuing semantics. *)

open Air_model
open Air_ipc

let check = Alcotest.check
let pid = Ident.Partition_id.make

let sampling name partition direction =
  Port.sampling_port ~name ~partition ~direction ~refresh:100
    ~max_message_size:32

let queuing ?(depth = 2) name partition direction =
  Port.queuing_port ~name ~partition ~direction ~depth ~max_message_size:32

let net =
  { Port.ports =
      [ sampling "S_OUT" (pid 0) Port.Source;
        sampling "S_IN" (pid 1) Port.Destination;
        queuing "Q_OUT" (pid 0) Port.Source;
        queuing "Q_IN" (pid 1) Port.Destination ];
    channels =
      [ { Port.source = "S_OUT"; destinations = [ "S_IN" ] };
        { Port.source = "Q_OUT"; destinations = [ "Q_IN" ] } ] }

let validation_ok () =
  check Alcotest.(list string) "no diagnostics" [] (Port.validate net)

let validation_catches_errors () =
  let bad name mk = (name, mk) in
  let cases =
    [ bad "duplicate port"
        { net with
          Port.ports = sampling "S_OUT" (pid 2) Port.Source :: net.Port.ports };
      bad "unknown source"
        { net with
          Port.channels =
            { Port.source = "NOPE"; destinations = [ "S_IN" ] }
            :: net.Port.channels };
      bad "unknown destination"
        { net with
          Port.channels = [ { Port.source = "S_OUT"; destinations = [ "NOPE" ] } ] };
      bad "mode mismatch"
        { net with
          Port.channels = [ { Port.source = "S_OUT"; destinations = [ "Q_IN" ] } ] };
      bad "direction misuse"
        { net with
          Port.channels = [ { Port.source = "S_IN"; destinations = [ "S_OUT" ] } ] };
      bad "double channel from one source"
        { net with
          Port.channels =
            { Port.source = "S_OUT"; destinations = [ "S_IN" ] }
            :: net.Port.channels };
      (* Regression: ARINC 653 queuing channels are strictly 1:1; fan-out
         used to slip through validation. *)
      bad "queuing fan-out"
        { Port.ports = queuing "Q_IN2" (pid 2) Port.Destination :: net.Port.ports;
          channels =
            [ { Port.source = "S_OUT"; destinations = [ "S_IN" ] };
              { Port.source = "Q_OUT"; destinations = [ "Q_IN"; "Q_IN2" ] } ] } ]
  in
  List.iter
    (fun (name, bad_net) ->
      check Alcotest.bool name true (Port.validate bad_net <> []))
    cases

(* Sampling channels may still fan out to several destinations. *)
let sampling_fanout_still_valid () =
  let fanned =
    { Port.ports = sampling "S_IN2" (pid 2) Port.Destination :: net.Port.ports;
      channels =
        [ { Port.source = "S_OUT"; destinations = [ "S_IN"; "S_IN2" ] };
          { Port.source = "Q_OUT"; destinations = [ "Q_IN" ] } ] }
  in
  check Alcotest.(list string) "no diagnostics" [] (Port.validate fanned)

let size_mismatch_detected () =
  let small_dest =
    Port.sampling_port ~name:"S_IN" ~partition:(pid 1)
      ~direction:Port.Destination ~refresh:100 ~max_message_size:8
  in
  let bad =
    { Port.ports = [ sampling "S_OUT" (pid 0) Port.Source; small_dest ];
      channels = [ { Port.source = "S_OUT"; destinations = [ "S_IN" ] } ] }
  in
  check Alcotest.bool "size" true (Port.validate bad <> [])

let msg s = Bytes.of_string s

let sampling_semantics () =
  let r = Router.create net in
  (* Empty slot reads invalid with empty payload. *)
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:0 with
  | Ok (m, Router.Invalid) -> check Alcotest.int "empty" 0 (Bytes.length m)
  | _ -> Alcotest.fail "expected empty invalid read");
  (match Router.write_sampling r ~caller:(pid 0) ~port:"S_OUT" ~now:10 (msg "alpha") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Router.pp_error e);
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:50 with
  | Ok (m, Router.Valid) -> check Alcotest.string "fresh" "alpha" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected fresh read");
  (* Reads are non-destructive. *)
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:60 with
  | Ok (m, Router.Valid) -> check Alcotest.string "again" "alpha" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected second read");
  (* A later write overwrites. *)
  ignore (Router.write_sampling r ~caller:(pid 0) ~port:"S_OUT" ~now:70 (msg "beta"));
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:80 with
  | Ok (m, Router.Valid) -> check Alcotest.string "overwritten" "beta" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected overwrite");
  (* Staleness: refresh period is 100. *)
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:250 with
  | Ok (_, Router.Invalid) -> ()
  | _ -> Alcotest.fail "expected stale read")

let sampling_copies_do_not_alias () =
  let r = Router.create net in
  let payload = msg "mutate-me" in
  ignore (Router.write_sampling r ~caller:(pid 0) ~port:"S_OUT" ~now:0 payload);
  Bytes.set payload 0 'X';
  (match Router.read_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:1 with
  | Ok (m, _) ->
    check Alcotest.string "copied on write" "mutate-me" (Bytes.to_string m)
  | Error _ -> Alcotest.fail "read failed")

let queuing_fifo_and_overflow () =
  let r = Router.create net in
  let send s =
    match Router.send_queuing r ~caller:(pid 0) ~port:"Q_OUT" ~now:0 (msg s) with
    | Ok outcome -> outcome
    | Error e -> Alcotest.failf "send: %a" Router.pp_error e
  in
  let names = List.map (Router.port_name r) in
  let o1 = send "one" and o2 = send "two" in
  check Alcotest.(list string) "delivered" [ "Q_IN" ]
    (names o1.Router.delivered);
  check Alcotest.(list string) "delivered" [ "Q_IN" ]
    (names o2.Router.delivered);
  (* depth 2: the third message overflows. *)
  let o3 = send "three" in
  check Alcotest.(list string) "overflowed" [ "Q_IN" ]
    (names o3.Router.overflowed);
  check Alcotest.int "pending" 2
    (Router.pending r ~port:(Router.resolve r "Q_IN"));
  (match Router.receive_queuing r ~caller:(pid 1) ~port:"Q_IN" ~now:1 with
  | Ok (Some m) -> check Alcotest.string "fifo" "one" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected message");
  (match Router.receive_queuing r ~caller:(pid 1) ~port:"Q_IN" ~now:1 with
  | Ok (Some m) -> check Alcotest.string "fifo" "two" (Bytes.to_string m)
  | _ -> Alcotest.fail "expected message");
  (match Router.receive_queuing r ~caller:(pid 1) ~port:"Q_IN" ~now:1 with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected empty");
  let stats = Router.stats r in
  check Alcotest.int "overflow counted" 1 stats.Router.overflows

let ownership_and_direction_checks () =
  let r = Router.create net in
  (match Router.write_sampling r ~caller:(pid 1) ~port:"S_OUT" ~now:0 (msg "x") with
  | Error (Router.Not_owner _) -> ()
  | _ -> Alcotest.fail "expected Not_owner");
  (match Router.write_sampling r ~caller:(pid 1) ~port:"S_IN" ~now:0 (msg "x") with
  | Error (Router.Wrong_direction _) -> ()
  | _ -> Alcotest.fail "expected Wrong_direction");
  (match Router.write_sampling r ~caller:(pid 0) ~port:"Q_OUT" ~now:0 (msg "x") with
  | Error (Router.Wrong_mode _) -> ()
  | _ -> Alcotest.fail "expected Wrong_mode");
  (match Router.read_sampling r ~caller:(pid 1) ~port:"NOPE" ~now:0 with
  | Error (Router.Unknown_port _) -> ()
  | _ -> Alcotest.fail "expected Unknown_port");
  (match
     Router.write_sampling r ~caller:(pid 0) ~port:"S_OUT" ~now:0
       (Bytes.make 100 'x')
   with
  | Error (Router.Message_too_large _) -> ()
  | _ -> Alcotest.fail "expected Message_too_large");
  (match Router.write_sampling r ~caller:(pid 0) ~port:"S_OUT" ~now:0 (Bytes.create 0) with
  | Error Router.Empty_message -> ()
  | _ -> Alcotest.fail "expected Empty_message")

let multicast_fanout () =
  let fan =
    { Port.ports =
        [ sampling "SRC" (pid 0) Port.Source;
          sampling "D1" (pid 1) Port.Destination;
          sampling "D2" (pid 2) Port.Destination ];
      channels = [ { Port.source = "SRC"; destinations = [ "D1"; "D2" ] } ] }
  in
  let r = Router.create fan in
  ignore (Router.write_sampling r ~caller:(pid 0) ~port:"SRC" ~now:0 (msg "cast"));
  List.iter
    (fun (p, port) ->
      match Router.read_sampling r ~caller:p ~port ~now:1 with
      | Ok (m, Router.Valid) ->
        check Alcotest.string port "cast" (Bytes.to_string m)
      | _ -> Alcotest.failf "missing fanout at %s" port)
    [ (pid 1, "D1"); (pid 2, "D2") ]

let suite =
  [ Alcotest.test_case "network validation passes" `Quick validation_ok;
    Alcotest.test_case "network validation catches errors" `Quick
      validation_catches_errors;
    Alcotest.test_case "destination size must cover source" `Quick
      size_mismatch_detected;
    Alcotest.test_case "sampling fanout remains valid" `Quick
      sampling_fanout_still_valid;
    Alcotest.test_case "sampling semantics" `Quick sampling_semantics;
    Alcotest.test_case "sampling copies do not alias" `Quick
      sampling_copies_do_not_alias;
    Alcotest.test_case "queuing FIFO and overflow" `Quick
      queuing_fifo_and_overflow;
    Alcotest.test_case "ownership and direction checks" `Quick
      ownership_and_direction_checks;
    Alcotest.test_case "multicast fanout" `Quick multicast_fanout ]
