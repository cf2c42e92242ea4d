(* Self-profiler for the skip-ahead executive: attributes wall-clock time
   and tick counts to the engine's execution mechanisms — individually
   stepped ticks, blind per-tick batches, collapsed quiet spans and the
   probes that find them — and keeps the recent trajectory of the adaptive
   density estimate. Purely observational: the engine behaves identically
   with or without one attached (the property tests pin bit-identical
   traces), it just pays two clock reads around each instrumented
   operation while profiling. *)

type t = {
  (* Ticks executed one at a time through the per-tick path, with engine
     bookkeeping (quiescence check, probe decision) between them. *)
  mutable step_ticks : int;
  mutable step_calls : int;
  mutable step_seconds : float;
  (* Ticks executed through [System.run] with no engine bookkeeping in
     between: adaptive blind batches, and whole Per_tick-mode advances. *)
  mutable batch_ticks : int;
  mutable batch_calls : int;
  mutable batch_seconds : float;
  (* Ticks collapsed into O(1) batch clock updates by successful probes. *)
  mutable skip_ticks : int;
  mutable skip_spans : int;
  (* Probe accounting: a probe that skips nothing was pure overhead. *)
  mutable probes_successful : int;
  mutable probes_wasted : int;
  mutable probe_seconds : float;
  mutable wasted_probe_seconds : float;
  (* Density-estimate trajectory: most recent [capacity] samples, taken
     at probe outcomes and blind-batch launches. *)
  trajectory : int array;
  mutable traj_head : int;
  mutable traj_total : int;
}

let create ?(trajectory_capacity = 1024) () =
  if trajectory_capacity <= 0 then
    invalid_arg "Profiler.create: capacity must be positive";
  { step_ticks = 0;
    step_calls = 0;
    step_seconds = 0.0;
    batch_ticks = 0;
    batch_calls = 0;
    batch_seconds = 0.0;
    skip_ticks = 0;
    skip_spans = 0;
    probes_successful = 0;
    probes_wasted = 0;
    probe_seconds = 0.0;
    wasted_probe_seconds = 0.0;
    trajectory = Array.make trajectory_capacity 0;
    traj_head = 0;
    traj_total = 0 }

let timestamp () = Unix.gettimeofday ()

let note_step t ~seconds =
  t.step_ticks <- t.step_ticks + 1;
  t.step_calls <- t.step_calls + 1;
  t.step_seconds <- t.step_seconds +. seconds

let note_batch t ~ticks ~seconds =
  t.batch_ticks <- t.batch_ticks + ticks;
  t.batch_calls <- t.batch_calls + 1;
  t.batch_seconds <- t.batch_seconds +. seconds

let note_probe t ~skipped ~seconds =
  t.probe_seconds <- t.probe_seconds +. seconds;
  if skipped > 0 then begin
    t.probes_successful <- t.probes_successful + 1;
    t.skip_spans <- t.skip_spans + 1;
    t.skip_ticks <- t.skip_ticks + skipped
  end
  else begin
    t.probes_wasted <- t.probes_wasted + 1;
    t.wasted_probe_seconds <- t.wasted_probe_seconds +. seconds
  end

let note_density t density =
  t.trajectory.(t.traj_head) <- density;
  t.traj_head <- (t.traj_head + 1) mod Array.length t.trajectory;
  t.traj_total <- t.traj_total + 1

let simulated t = t.step_ticks + t.batch_ticks + t.skip_ticks
let probes t = t.probes_successful + t.probes_wasted

let density_trajectory t =
  let cap = Array.length t.trajectory in
  let n = Int.min t.traj_total cap in
  let start = (t.traj_head - n + cap) mod cap in
  List.init n (fun i -> t.trajectory.((start + i) mod cap))

(* --- Reports ------------------------------------------------------------- *)

let ms s = s *. 1e3

let ns_per s ticks =
  if ticks = 0 then 0.0 else s *. 1e9 /. float_of_int ticks

let to_text t =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let wall =
    t.step_seconds +. t.batch_seconds +. t.probe_seconds
  in
  line "engine profile: %d simulated ticks, %.3f ms instrumented wall clock"
    (simulated t) (ms wall);
  line "  per-tick steps  : %8d ticks            %10.3f ms  (%6.1f ns/tick)"
    t.step_ticks (ms t.step_seconds)
    (ns_per t.step_seconds t.step_ticks);
  line "  blind batches   : %8d ticks %6d runs %10.3f ms  (%6.1f ns/tick)"
    t.batch_ticks t.batch_calls (ms t.batch_seconds)
    (ns_per t.batch_seconds t.batch_ticks);
  line "  skipped spans   : %8d ticks %6d spans          -  (O(1) each)"
    t.skip_ticks t.skip_spans;
  line "  probes          : %8d total %6d paid off, %d wasted (%.3f ms, %.3f ms wasted)"
    (probes t) t.probes_successful t.probes_wasted (ms t.probe_seconds)
    (ms t.wasted_probe_seconds);
  (match density_trajectory t with
  | [] -> line "  density estimate: no samples (workload never left probing)"
  | samples ->
    let mn = List.fold_left Int.min 256 samples in
    let mx = List.fold_left Int.max 0 samples in
    let last = List.nth samples (List.length samples - 1) in
    line "  density estimate: last=%d/256 min=%d max=%d over %d samples%s"
      last mn mx t.traj_total
      (if t.traj_total > List.length samples then " (recent window)" else ""));
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"air-profile/1\",\"simulated\":%d,\"buckets\":{"
       (simulated t));
  Buffer.add_string buf
    (Printf.sprintf
       "\"step\":{\"ticks\":%d,\"calls\":%d,\"seconds\":%.9f},"
       t.step_ticks t.step_calls t.step_seconds);
  Buffer.add_string buf
    (Printf.sprintf
       "\"batch\":{\"ticks\":%d,\"runs\":%d,\"seconds\":%.9f},"
       t.batch_ticks t.batch_calls t.batch_seconds);
  Buffer.add_string buf
    (Printf.sprintf "\"skip\":{\"ticks\":%d,\"spans\":%d}},"
       t.skip_ticks t.skip_spans);
  Buffer.add_string buf
    (Printf.sprintf
       "\"probes\":{\"total\":%d,\"successful\":%d,\"wasted\":%d,\
        \"seconds\":%.9f,\"wasted_seconds\":%.9f},"
       (probes t) t.probes_successful t.probes_wasted t.probe_seconds
       t.wasted_probe_seconds);
  Buffer.add_string buf
    (Printf.sprintf "\"density\":{\"samples\":%d,\"trajectory\":[%s]}}"
       t.traj_total
       (String.concat ","
          (List.map string_of_int (density_trajectory t))));
  Buffer.contents buf
