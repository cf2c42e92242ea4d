(* Per-MTF telemetry frames.

   The accumulator is fed from the PMK clock tick (window occupancy,
   dispatch jitter), the PAL (catch-up depth, deadline misses), the Health
   Monitor (error invocations) and the IPC router (delivery latency). The
   PMK closes the frame at each MTF boundary; closing extracts percentiles
   from the live quantile histograms, snapshots the per-partition counters
   into an immutable [frame], pushes it onto a bounded ring (same retention
   discipline as [Sim.Trace] / [Obs.Span]) and resets the accumulator for
   the next frame. *)

(* --- Watchdog configuration -------------------------------------------- *)

type watchdog = {
  min_slack : int option;
  max_jitter_p99 : int option;
  max_catch_up : int option;
  max_deadline_misses : int option;
}

let watchdog ?min_slack ?max_jitter_p99 ?max_catch_up ?max_deadline_misses
    () =
  { min_slack; max_jitter_p99; max_catch_up; max_deadline_misses }

let no_watchdog = watchdog ()

let watchdog_is_trivial w =
  w.min_slack = None && w.max_jitter_p99 = None && w.max_catch_up = None
  && w.max_deadline_misses = None

type config = {
  retention : int option;
  default_watchdog : watchdog;
  schedule_watchdogs : (int * watchdog) list;
}

let config ?retention ?(default_watchdog = no_watchdog)
    ?(schedule_watchdogs = []) () =
  (match retention with
  | Some c when c <= 0 ->
    invalid_arg "Telemetry.config: retention must be positive"
  | Some _ | None -> ());
  { retention; default_watchdog; schedule_watchdogs }

let default_config = config ()

(* --- Frames ------------------------------------------------------------- *)

type partition_frame = {
  pf_partition : int;
  pf_window_ticks : int;
  pf_allotted : int;
  pf_dispatches : int;
  pf_jitter_max : int;
  pf_catch_up_max : int;
  pf_deadline_misses : int;
  pf_hm_errors : int;
  (* Interference fields, meaningful only when the frame's [f_interference]
     flag is set (a contention model was configured); all zero otherwise
     and omitted from the exports, keeping them byte-identical to the
     pre-contention schema. *)
  pf_mem_demand : int;
  pf_mem_budget : int;
  pf_throttled : int;
  pf_co_pressure : int;
}

type frame = {
  f_index : int;
  f_schedule : int;
  f_start : int;
  f_stop : int;
  f_busy : int;
  f_slack : int;
  f_catch_up_max : int;
  f_deadline_misses : int;
  f_hm_errors : int;
  f_jitter_count : int;
  f_jitter_p50 : int;
  f_jitter_p90 : int;
  f_jitter_p99 : int;
  f_jitter_max : int;
  f_ipc_count : int;
  f_ipc_p50 : int;
  f_ipc_p90 : int;
  f_ipc_p99 : int;
  f_ipc_max : int;
  f_interference : bool;
  f_partitions : partition_frame array;
}

let frame_utilization_permille pf =
  if pf.pf_allotted <= 0 then 0
  else (pf.pf_window_ticks * 1000) / pf.pf_allotted

(* --- Accumulator -------------------------------------------------------- *)

type t = {
  cfg : config;
  partition_count : int;
  closed : frame Queue.t;
  mutable total_frames : int;
  mutable cur_schedule : int;
  mutable cur_start : int;
  mutable cur_busy : int;
  mutable cur_idle : int;
  mutable cur_catch_up_max : int;
  mutable cur_deadline_misses : int;
  mutable cur_hm_errors : int;
  window_ticks : int array;
  allotted : int array;
  dispatches : int array;
  jitter_max : int array;
  catch_up_max : int array;
  deadline_misses : int array;
  hm_errors : int array;
  jitter : Quantile.t;
  ipc : Quantile.t;
  mutable interference : bool;
      (* Set once at boot when a contention model is attached; gates the
         interference fields in frames and exports. *)
  mem_demand : int array;
  mem_budget : int array;
  throttled : int array;
  co_pressure : int array;
}

let create ?(config = default_config) ~partition_count () =
  if partition_count < 0 then
    invalid_arg "Telemetry.create: negative partition count";
  let n = Int.max 1 partition_count in
  { cfg = config;
    partition_count;
    closed = Queue.create ();
    total_frames = 0;
    cur_schedule = 0;
    cur_start = 0;
    cur_busy = 0;
    cur_idle = 0;
    cur_catch_up_max = 0;
    cur_deadline_misses = 0;
    cur_hm_errors = 0;
    window_ticks = Array.make n 0;
    allotted = Array.make n 0;
    dispatches = Array.make n 0;
    jitter_max = Array.make n 0;
    catch_up_max = Array.make n 0;
    deadline_misses = Array.make n 0;
    hm_errors = Array.make n 0;
    jitter = Quantile.create ();
    ipc = Quantile.create ();
    interference = false;
    mem_demand = Array.make n 0;
    mem_budget = Array.make n 0;
    throttled = Array.make n 0;
    co_pressure = Array.make n 0 }

let frame_start t = t.cur_start
let current_schedule t = t.cur_schedule
let total_frames t = t.total_frames
let ticks_accumulated t = t.cur_busy + t.cur_idle

let prime t ~schedule ~allotted =
  t.cur_schedule <- schedule;
  Array.iteri
    (fun i a -> if i < Array.length t.allotted then t.allotted.(i) <- a)
    allotted

(* --- Hot-path hooks ----------------------------------------------------- *)

(* The active partition is a plain integer (negative = idle) so per-tick
   callers need not box an option. *)
let on_tick t ~active =
  if active >= 0 then begin
    t.window_ticks.(active) <- t.window_ticks.(active) + 1;
    t.cur_busy <- t.cur_busy + 1
  end
  else t.cur_idle <- t.cur_idle + 1

let on_ticks t ~active ~count =
  if count > 0 then
    if active >= 0 then begin
      t.window_ticks.(active) <- t.window_ticks.(active) + count;
      t.cur_busy <- t.cur_busy + count
    end
    else t.cur_idle <- t.cur_idle + count

let on_dispatch t ~partition ~jitter =
  t.dispatches.(partition) <- t.dispatches.(partition) + 1;
  Quantile.record t.jitter jitter;
  if jitter > t.jitter_max.(partition) then t.jitter_max.(partition) <- jitter

let on_catch_up t ~partition ~depth =
  if depth > t.catch_up_max.(partition) then
    t.catch_up_max.(partition) <- depth;
  if depth > t.cur_catch_up_max then t.cur_catch_up_max <- depth

let on_deadline_miss t ~partition =
  t.deadline_misses.(partition) <- t.deadline_misses.(partition) + 1;
  t.cur_deadline_misses <- t.cur_deadline_misses + 1

let on_hm_error t ~partition =
  t.cur_hm_errors <- t.cur_hm_errors + 1;
  match partition with
  | Some i -> t.hm_errors.(i) <- t.hm_errors.(i) + 1
  | None -> ()

let on_ipc_delivery t ~latency = Quantile.record t.ipc latency

(* Interference accounting, fed by the executive's contention model. *)

let enable_interference t = t.interference <- true

let on_mem_demand t ~partition ~cost =
  t.mem_demand.(partition) <- t.mem_demand.(partition) + cost

let on_throttled t ~partition =
  t.throttled.(partition) <- t.throttled.(partition) + 1

(* Budget and co-runner pressure are window-scoped facts, not counters:
   pushed at every window open (and at boot) and carried into the frame
   closing that window, like [allotted]. *)
let set_interference_window t ~partition ~budget ~co_pressure =
  t.mem_budget.(partition) <- budget;
  t.co_pressure.(partition) <- co_pressure

(* --- Frame close -------------------------------------------------------- *)

let push_frame t frame =
  Queue.push frame t.closed;
  (match t.cfg.retention with
  | Some cap ->
    while Queue.length t.closed > cap do
      ignore (Queue.pop t.closed)
    done
  | None -> ());
  t.total_frames <- t.total_frames + 1

let close_frame t ~now ~next_schedule ~next_allotted =
  let partitions =
    Array.init t.partition_count (fun i ->
        { pf_partition = i;
          pf_window_ticks = t.window_ticks.(i);
          pf_allotted = t.allotted.(i);
          pf_dispatches = t.dispatches.(i);
          pf_jitter_max = t.jitter_max.(i);
          pf_catch_up_max = t.catch_up_max.(i);
          pf_deadline_misses = t.deadline_misses.(i);
          pf_hm_errors = t.hm_errors.(i);
          pf_mem_demand = t.mem_demand.(i);
          pf_mem_budget = t.mem_budget.(i);
          pf_throttled = t.throttled.(i);
          pf_co_pressure = t.co_pressure.(i) })
  in
  let frame =
    { f_index = t.total_frames;
      f_schedule = t.cur_schedule;
      f_start = t.cur_start;
      f_stop = now;
      f_busy = t.cur_busy;
      f_slack = t.cur_idle;
      f_catch_up_max = t.cur_catch_up_max;
      f_deadline_misses = t.cur_deadline_misses;
      f_hm_errors = t.cur_hm_errors;
      f_jitter_count = Quantile.count t.jitter;
      f_jitter_p50 = Quantile.p50 t.jitter;
      f_jitter_p90 = Quantile.p90 t.jitter;
      f_jitter_p99 = Quantile.p99 t.jitter;
      f_jitter_max = Quantile.max_value t.jitter;
      f_ipc_count = Quantile.count t.ipc;
      f_ipc_p50 = Quantile.p50 t.ipc;
      f_ipc_p90 = Quantile.p90 t.ipc;
      f_ipc_p99 = Quantile.p99 t.ipc;
      f_ipc_max = Quantile.max_value t.ipc;
      f_interference = t.interference;
      f_partitions = partitions }
  in
  push_frame t frame;
  (* Reset the accumulator for the next frame. *)
  t.cur_schedule <- next_schedule;
  t.cur_start <- now;
  t.cur_busy <- 0;
  t.cur_idle <- 0;
  t.cur_catch_up_max <- 0;
  t.cur_deadline_misses <- 0;
  t.cur_hm_errors <- 0;
  for i = 0 to Array.length t.window_ticks - 1 do
    t.window_ticks.(i) <- 0;
    t.dispatches.(i) <- 0;
    t.jitter_max.(i) <- 0;
    t.catch_up_max.(i) <- 0;
    t.deadline_misses.(i) <- 0;
    t.hm_errors.(i) <- 0;
    t.mem_demand.(i) <- 0;
    t.throttled.(i) <- 0
  done;
  Quantile.clear t.jitter;
  Quantile.clear t.ipc;
  Array.iteri
    (fun i a -> if i < Array.length t.allotted then t.allotted.(i) <- a)
    next_allotted;
  frame

let flush t ~now =
  if ticks_accumulated t = 0 then None
  else
    Some
      (close_frame t ~now ~next_schedule:t.cur_schedule
         ~next_allotted:(Array.copy t.allotted))

let frames t = List.of_seq (Queue.to_seq t.closed)
let retained t = Queue.length t.closed

(* --- Watchdogs ---------------------------------------------------------- *)

let watchdog_for t ~schedule =
  match List.assoc_opt schedule t.cfg.schedule_watchdogs with
  | Some w -> w
  | None -> t.cfg.default_watchdog

type breach =
  | Slack_below of { slack : int; min_slack : int }
  | Jitter_p99_above of { p99 : int; max_jitter_p99 : int }
  | Catch_up_above of { partition : int; depth : int; max_catch_up : int }
  | Deadline_misses_above of {
      partition : int;
      misses : int;
      max_deadline_misses : int;
    }

let breach_partition = function
  | Slack_below _ | Jitter_p99_above _ -> None
  | Catch_up_above { partition; _ } | Deadline_misses_above { partition; _ }
    ->
    Some partition

let pp_breach ppf = function
  | Slack_below { slack; min_slack } ->
    Format.fprintf ppf "slack %d < min %d" slack min_slack
  | Jitter_p99_above { p99; max_jitter_p99 } ->
    Format.fprintf ppf "jitter p99 %d > max %d" p99 max_jitter_p99
  | Catch_up_above { partition; depth; max_catch_up } ->
    Format.fprintf ppf "p%d catch-up %d > max %d" partition depth
      max_catch_up
  | Deadline_misses_above { partition; misses; max_deadline_misses } ->
    Format.fprintf ppf "p%d deadline misses %d > max %d" partition misses
      max_deadline_misses

let breaches w frame =
  let acc = ref [] in
  (match w.max_jitter_p99 with
  | Some m when frame.f_jitter_count > 0 && frame.f_jitter_p99 > m ->
    acc := Jitter_p99_above { p99 = frame.f_jitter_p99; max_jitter_p99 = m }
           :: !acc
  | Some _ | None -> ());
  (match w.min_slack with
  | Some m when frame.f_slack < m ->
    acc := Slack_below { slack = frame.f_slack; min_slack = m } :: !acc
  | Some _ | None -> ());
  (* Per-partition thresholds, reported in partition order. *)
  Array.iter
    (fun pf ->
      (match w.max_deadline_misses with
      | Some m when pf.pf_deadline_misses > m ->
        acc :=
          Deadline_misses_above
            { partition = pf.pf_partition;
              misses = pf.pf_deadline_misses;
              max_deadline_misses = m }
          :: !acc
      | Some _ | None -> ());
      match w.max_catch_up with
      | Some m when pf.pf_catch_up_max > m ->
        acc :=
          Catch_up_above
            { partition = pf.pf_partition;
              depth = pf.pf_catch_up_max;
              max_catch_up = m }
          :: !acc
      | Some _ | None -> ())
    frame.f_partitions;
  List.rev !acc

(* --- Export ------------------------------------------------------------- *)

let schema = "air-telemetry/1"

(* The interference fields are appended only for frames accumulated with
   a contention model attached, so exports from a module without one stay
   byte-identical to the pre-contention schema. *)
let json_partition b ~interference pf =
  Buffer.add_string b
    (Printf.sprintf
       "{\"partition\":%d,\"window_ticks\":%d,\"allotted\":%d,\
        \"utilization_permille\":%d,\"dispatches\":%d,\"jitter_max\":%d,\
        \"catch_up_max\":%d,\"deadline_misses\":%d,\"hm_errors\":%d"
       pf.pf_partition pf.pf_window_ticks pf.pf_allotted
       (frame_utilization_permille pf)
       pf.pf_dispatches pf.pf_jitter_max pf.pf_catch_up_max
       pf.pf_deadline_misses pf.pf_hm_errors);
  if interference then
    Buffer.add_string b
      (Printf.sprintf
         ",\"mem_demand\":%d,\"mem_budget\":%d,\"throttled\":%d,\
          \"co_pressure\":%d"
         pf.pf_mem_demand pf.pf_mem_budget pf.pf_throttled pf.pf_co_pressure);
  Buffer.add_char b '}'

let json_frame b f =
  Buffer.add_string b
    (Printf.sprintf
       "{\"frame\":%d,\"schedule\":%d,\"start\":%d,\"stop\":%d,\"busy\":%d,\
        \"slack\":%d,\"catch_up_max\":%d,\"deadline_misses\":%d,\
        \"hm_errors\":%d,\"jitter\":{\"count\":%d,\"p50\":%d,\"p90\":%d,\
        \"p99\":%d,\"max\":%d},\"ipc\":{\"count\":%d,\"p50\":%d,\"p90\":%d,\
        \"p99\":%d,\"max\":%d},\"partitions\":["
       f.f_index f.f_schedule f.f_start f.f_stop f.f_busy f.f_slack
       f.f_catch_up_max f.f_deadline_misses f.f_hm_errors f.f_jitter_count
       f.f_jitter_p50 f.f_jitter_p90 f.f_jitter_p99 f.f_jitter_max
       f.f_ipc_count f.f_ipc_p50 f.f_ipc_p90 f.f_ipc_p99 f.f_ipc_max);
  Array.iteri
    (fun i pf ->
      if i > 0 then Buffer.add_char b ',';
      json_partition b ~interference:f.f_interference pf)
    f.f_partitions;
  Buffer.add_string b "]}"

let to_json frames =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":%S,\"frames\":[" schema);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      json_frame b f)
    frames;
  Buffer.add_string b "]}";
  Buffer.contents b

let csv_header =
  "frame,schedule,start,stop,busy,slack,frame_catch_up_max,\
   frame_deadline_misses,frame_hm_errors,jitter_count,jitter_p50,\
   jitter_p90,jitter_p99,jitter_max,ipc_count,ipc_p50,ipc_p90,ipc_p99,\
   ipc_max,partition,window_ticks,allotted,utilization_permille,dispatches,\
   p_jitter_max,p_catch_up_max,p_deadline_misses,p_hm_errors"

let csv_interference_columns = ",mem_demand,mem_budget,throttled,co_pressure"

let to_csv frames =
  (* A module either has a contention model for its whole run or none:
     frames never mix, so the file-level header decision is sound (and
     keeps contention-free exports byte-identical). *)
  let interference =
    List.exists (fun f -> f.f_interference) frames
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b csv_header;
  if interference then Buffer.add_string b csv_interference_columns;
  Buffer.add_char b '\n';
  List.iter
    (fun f ->
      Array.iter
        (fun pf ->
          Buffer.add_string b
            (Printf.sprintf
               "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,\
                %d,%d,%d,%d,%d,%d,%d,%d,%d"
               f.f_index f.f_schedule f.f_start f.f_stop f.f_busy f.f_slack
               f.f_catch_up_max f.f_deadline_misses f.f_hm_errors
               f.f_jitter_count f.f_jitter_p50 f.f_jitter_p90 f.f_jitter_p99
               f.f_jitter_max f.f_ipc_count f.f_ipc_p50 f.f_ipc_p90
               f.f_ipc_p99 f.f_ipc_max pf.pf_partition pf.pf_window_ticks
               pf.pf_allotted
               (frame_utilization_permille pf)
               pf.pf_dispatches pf.pf_jitter_max pf.pf_catch_up_max
               pf.pf_deadline_misses pf.pf_hm_errors);
          if interference then
            Buffer.add_string b
              (Printf.sprintf ",%d,%d,%d,%d" pf.pf_mem_demand pf.pf_mem_budget
                 pf.pf_throttled pf.pf_co_pressure);
          Buffer.add_char b '\n')
        f.f_partitions)
    frames;
  Buffer.contents b
