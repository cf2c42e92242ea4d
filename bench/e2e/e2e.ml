(* End-to-end benchmark of the AIR simulator.

     dune exec ./bench/e2e/e2e.exe -- \
       --workload leo --seed 1 --seconds 15 --trace 0

   Runs one workload (see workload.ml) as a closed loop with one caller:
   the next chunk of simulated time, or the next campaign, starts when the
   previous one returns. Rounds of fixed size run one at a time, each in a
   fresh child process of this executable, until [--seconds] have passed,
   so GC state and peak RSS are separate per round. Every round's final
   state is then checked against a reference run: per-tick for one module,
   the sequential cluster for the constellation; campaigns must be
   contained and reproducible.

   With [--trace 0] the result carries the end-to-end metrics, measured
   with nothing attached; with [--trace 1] one extra traced round
   (layers.ml) splits the run across the library's layers. The last line
   of standard output is the result as one JSON object; exit status 1
   means a correctness check failed, 2 that the harness could not run. *)

open Workload

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum = Array.fold_left ( +. ) 0.0

(* --- Children ------------------------------------------------------------ *)

(* A child reports "key value..." lines on standard output. *)
let emit key fmt = Printf.printf ("%s " ^^ fmt ^^ "\n") key

let child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    let table = Hashtbl.create 16 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | key :: values -> Hashtbl.replace table key values
        | [] -> ())
      (String.split_on_char '\n' out);
    Some table
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None

let field table key =
  match Hashtbl.find_opt table key with
  | Some [ v ] -> v
  | Some _ | None -> failwith ("child report lacks " ^ key)

let number table key = float_of_string (field table key)

let run_round w ~seed ~round ~bare =
  let r = Round.run ~bare w ~seed ~round in
  emit "ops" "%s"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.9e") r.op_seconds)));
  emit "module_ticks" "%d" r.module_ticks;
  emit "failed" "%d" r.failed;
  emit "peak_rss_kb" "%d" r.peak_rss_kb;
  Option.iter (emit "fingerprint" "%s") r.fingerprint

let run_reference w =
  let fingerprint, wall = Round.reference w in
  emit "fingerprint" "%s" fingerprint;
  emit "wall" "%.9e" wall

let run_traced w ~seed ~untraced ~per_tick ~bare =
  let r = Layers.run w ~seed ~untraced ~per_tick ~bare in
  List.iter (fun (name, v) -> emit name "%.17g" v) r.values;
  List.iter (fun (name, fp) -> emit name "%s" fp) r.fingerprints;
  emit "attempted" "%d" r.attempted;
  emit "failed" "%d" r.failed

(* --- The run ------------------------------------------------------------- *)

type round = {
  ops : float array;
  module_ticks : int;
  peak_rss_kb : int;
  ok : bool;  (** Exited cleanly with a fingerprint equal to the reference. *)
  campaigns_failed : int;
}

let setup_per_round = 100

(* A line per metric for people, then the result line for programs. *)
let report ~workload ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit, note) ->
      Printf.printf "%s %s = %.6g %s (%s)\n" workload name value unit note)
    metrics;
  Printf.printf "%s failed %d of %d operations\n" workload failed attempted;
  let json =
    List.map
      (fun (name, value, unit, _) ->
        if not (Float.is_finite value) then
          failwith (Printf.sprintf "%s is not finite" name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " json)

(* The end-to-end metrics of the untraced rounds and [setup_s] samples. *)
let end_to_end ~setup rounds =
  let ops = Array.concat (List.map (fun r -> r.ops) rounds) in
  let r0 = List.hd rounds in
  let ticks_per_op =
    float_of_int r0.module_ticks /. float_of_int (Array.length r0.ops)
  in
  let rss =
    median
      (Array.of_list (List.map (fun r -> float_of_int r.peak_rss_kb) rounds))
  in
  let n = Printf.sprintf "%d rounds" (List.length rounds) in
  [ ( "mticks_per_s",
      ticks_per_op /. median ops /. 1e6,
      "Mtick/s",
      Printf.sprintf "median of %d operations over %s" (Array.length ops) n );
    ( "setup_s",
      median setup,
      "s",
      Printf.sprintf "median of %d builds" (Array.length setup) );
    ("peak_rss_mb", rss /. 1024.0, "MB", "median over " ^ n) ]

(* The per-layer metrics: the traced round's, plus the untraced rounds'
   chunk statistics. *)
let per_layer traced rounds =
  let ops = Array.concat (List.map (fun r -> r.ops) rounds) in
  let chunk =
    [ ("chunk_ms_p50", median ops *. 1e3);
      ("chunk_ms_p90", percentile 0.9 ops *. 1e3);
      ("chunk_n", float_of_int (Array.length ops)) ]
  in
  List.map
    (fun (metric, unit) ->
      let value =
        match List.assoc_opt metric chunk with
        | Some v -> v
        | None -> number traced metric
      in
      (metric, value, unit, "traced round"))
    Layers.table

let benchmark name w ~seed ~seconds ~trace =
  let args kind rest =
    [ "--child"; kind; "--workload"; name; "--seed"; string_of_int seed ]
    @ rest
  in
  let reference =
    match w with
    | Campaign_sweep -> None
    | Leo | Leo_observed | Constellation -> (
      match child (args "reference" []) with
      | Some t -> Some (field t "fingerprint", number t "wall")
      | None -> failwith "the reference run failed")
  in
  let matches table key =
    match (reference, Hashtbl.find_opt table key) with
    | None, None -> true
    | Some (fp, _), Some [ v ] -> v = fp
    | _ -> false
  in
  let round ?(bare = false) r =
    let rest =
      [ "--round"; string_of_int r ] @ if bare then [ "--bare" ] else []
    in
    match child (args "round" rest) with
    | Some table ->
      { ops =
          Array.of_list
            (List.map float_of_string
               (Option.value (Hashtbl.find_opt table "ops") ~default:[]));
        module_ticks = int_of_string (field table "module_ticks");
        peak_rss_kb = int_of_string (field table "peak_rss_kb");
        ok = matches table "fingerprint";
        campaigns_failed = int_of_string (field table "failed") }
    | None ->
      { ops = [||]; module_ticks = 0; peak_rss_kb = 0; ok = false;
        campaigns_failed = ops_per_round w }
  in
  (* Set-up is timed in batches between rounds, so that its samples
     spread over the run like the rounds' do. *)
  let setup_samples = ref [] in
  let start = now () in
  let rec loop r acc =
    if r > 0 && now () -. start >= seconds then List.rev acc
    else begin
      let result = round r in
      if not trace then
        setup_samples :=
          Array.init setup_per_round (fun _ -> snd (time (fun () -> setup w)))
          :: !setup_samples;
      loop (r + 1) (result :: acc)
    end
  in
  let rounds = loop 0 [] in
  let attempted, failed =
    match w with
    | Campaign_sweep ->
      ( List.length rounds * ops_per_round w,
        List.fold_left (fun n r -> n + r.campaigns_failed) 0 rounds )
    | Leo | Leo_observed | Constellation ->
      (List.length rounds, List.length (List.filter (fun r -> not r.ok) rounds))
  in
  let rounds = List.filter (fun r -> r.ops <> [||]) rounds in
  if rounds = [] then failwith "no round completed";
  let attempted, failed, metrics =
    if not trace then
      let setup = Array.concat !setup_samples in
      (attempted, failed, end_to_end ~setup rounds)
    else begin
      let bare =
        match w with
        | Leo_observed ->
          let r = round ~bare:true 0 in
          if r.ops = [||] then failwith "the round without sinks failed";
          Some (sum r.ops)
        | Leo | Constellation | Campaign_sweep -> None
      in
      let float_arg flag v = [ flag; Printf.sprintf "%.17g" v ] in
      let untraced =
        median (Array.of_list (List.map (fun r -> sum r.ops) rounds))
      in
      let per_tick = Option.fold reference ~none:0.0 ~some:snd in
      let traced =
        match
          child
            (args "traced"
               (float_arg "--untraced" untraced
               @ float_arg "--per-tick" per_tick
               @ Option.fold bare ~none:[] ~some:(float_arg "--bare-wall")))
        with
        | Some t -> t
        | None -> failwith "the traced round failed"
      in
      let fingerprints_ok =
        Hashtbl.fold
          (fun key _ ok ->
            ok
            && ((not (String.starts_with ~prefix:"fingerprint" key))
               || matches traced key))
          traced true
      in
      ( attempted + int_of_string (field traced "attempted"),
        failed
        + int_of_string (field traced "failed")
        + (if fingerprints_ok then 0 else 1),
        per_layer traced rounds )
    end
  in
  report ~workload:name ~attempted ~failed metrics;
  failed = 0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and kind = ref "" and round = ref 0 and bare = ref false in
  let untraced = ref nan and per_tick = ref nan and bare_wall = ref nan in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  leo | leo-observed-2core | constellation | campaign-sweep");
      ("--seed", Arg.Set_int seed, "N  campaign seed (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S  how long to run rounds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      (* Internal: the jobs this executable hands its own children. *)
      ("--child", Arg.Set_string kind,
       " (internal) round | reference | traced");
      ("--round", Arg.Set_int round, " (internal)");
      ("--bare", Arg.Set bare, " (internal)");
      ("--untraced", Arg.Set_float untraced, " (internal)");
      ("--per-tick", Arg.Set_float per_tick, " (internal)");
      ("--bare-wall", Arg.Set_float bare_wall, " (internal)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match of_name !workload with
    | Some w -> w
    | None ->
      prerr_endline ("e2e: unknown workload " ^ !workload);
      exit 2
  in
  match !kind with
  | "round" -> run_round w ~seed:!seed ~round:!round ~bare:!bare
  | "reference" -> run_reference w
  | "traced" ->
    run_traced w ~seed:!seed ~untraced:!untraced ~per_tick:!per_tick
      ~bare:(if Float.is_nan !bare_wall then None else Some !bare_wall)
  | "" -> (
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "e2e: --trace takes 0 or 1";
      exit 2
    end;
    match
      benchmark !workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with
    | true -> ()
    | false -> exit 1
    | exception Failure msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
  | other ->
    prerr_endline ("e2e: unknown child job " ^ other);
    exit 2
