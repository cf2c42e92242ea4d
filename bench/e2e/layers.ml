(* The traced pass: one extra round per workload that splits its wall time
   across the library's layers, measured from outside.

   Spans are kept in memory around the calls the harness makes into each
   layer (document load, system creation, whole rounds, campaign phases)
   and reduced to per-name self times at the end. What happens inside an
   engine advance is split with the engine's own [Exec.Profiler] (step,
   blind-batch and probe buckets) and with replays: each layer's public
   operation (a [Pmk] tick, a PAL announcement, a POS heir selection, an
   IPC transfer, a contention charge, an MMU access) is timed on fresh
   state built from the workload's document and scaled by how often the
   round performed it. [core.residual_s] is what the replays leave of the
   engine's step and batch time: the script interpreter, event emission
   and the health monitor, which cannot be separated from outside. *)

open Air
open Workload

(* --- Spans ---------------------------------------------------------------- *)

type span = { name : string; parent : int; start : float; mutable stop : float }

let spans : (int, span) Hashtbl.t = Hashtbl.create 1024
let open_spans = ref []

let span name f =
  let id = Hashtbl.length spans in
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let s = { name; parent; start = now (); stop = nan } in
  Hashtbl.replace spans id s;
  open_spans := id :: !open_spans;
  Fun.protect f ~finally:(fun () ->
      s.stop <- now ();
      open_spans := List.tl !open_spans)

(* Per name: span count, inclusive seconds, and self seconds (inclusive
   minus the time its child spans cover). *)
let totals () =
  let acc = Hashtbl.create 16 in
  let bump name ~count ~incl ~self =
    let c, i, s =
      Option.value (Hashtbl.find_opt acc name) ~default:(0, 0.0, 0.0)
    in
    Hashtbl.replace acc name (c + count, i +. incl, s +. self)
  in
  Hashtbl.iter
    (fun _ s ->
      let d = s.stop -. s.start in
      bump s.name ~count:1 ~incl:d ~self:d;
      if s.parent >= 0 then
        bump (Hashtbl.find spans s.parent).name ~count:0 ~incl:0.0 ~self:(-.d))
    spans;
  fun name -> Option.value (Hashtbl.find_opt acc name) ~default:(0, 0.0, 0.0)

(* --- Metrics ------------------------------------------------------------- *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value (Hashtbl.find_opt metrics name) ~default:0.0
let set name v = Hashtbl.replace metrics name v
let add name v = set name (get name +. v)
let addi name n = add name (float_of_int n)

let counters =
  [ "pmk.ticks"; "pmk.context_switches"; "pmk.schedule_switches";
    "pal.deadlines_registered"; "pal.deadline_violations"; "tlb.hits";
    "tlb.misses"; "mmu.walks"; "mmu.faults" ]

(* The counters a finished module exposes, summed over modules. *)
let observe sys =
  List.iter
    (fun name ->
      match Air_obs.Metrics.find (System.metrics sys) name with
      | Some (Air_obs.Metrics.Counter_value n) -> addi name n
      | Some _ | None -> addi name 0)
    counters;
  let ipc = Air_ipc.Router.stats (System.router sys) in
  addi "ipc.messages_sent" ipc.Air_ipc.Router.messages_sent;
  addi "ipc.messages_received" ipc.Air_ipc.Router.messages_received;
  addi "ipc.bytes_copied" ipc.Air_ipc.Router.bytes_copied;
  let trace = System.trace sys in
  addi "obs.events"
    (List.fold_left (fun n (_, k) -> n + k) 0 (System.event_counts sys));
  addi "obs.trace_retained" (Air_sim.Trace.length trace);
  addi "obs.dropped" (Air_sim.Trace.total trace - Air_sim.Trace.length trace);
  Option.iter
    (fun r ->
      addi "obs.spans" (Air_obs.Span.total r);
      addi "obs.dropped" (Air_obs.Span.dropped r))
    (System.recorder sys);
  Option.iter
    (fun c ->
      addi "obs.flow_records" (Air_obs.Causal.total c);
      addi "obs.dropped" (Air_obs.Causal.dropped c))
    (System.causal sys);
  Option.iter
    (fun t -> addi "obs.telemetry_frames" (Air_obs.Telemetry.total_frames t))
    (System.telemetry sys)

(* Contention demand and throttling per MTF frame, read from the module's
   bounded telemetry ring; [seen] is the next frame index due. The ring
   must be read before it evicts an unseen frame. Modules without
   telemetry contribute nothing. *)
let harvest seen sys =
  List.iter
    (fun (f : Air_obs.Telemetry.frame) ->
      if f.f_index >= !seen then begin
        if f.f_index > !seen then
          failwith "telemetry frames evicted before they were read";
        seen := f.f_index + 1;
        Array.iter
          (fun (p : Air_obs.Telemetry.partition_frame) ->
            addi "contention.demand" p.pf_mem_demand;
            addi "contention.throttled_ticks" p.pf_throttled)
          f.f_partitions
      end)
    (System.telemetry_frames sys)

(* Engine buckets from the profiler's air-profile/1 document. *)
let profile engine profiler =
  let st = Air_exec.Engine.stats engine in
  addi "exec.stepped_ticks" st.Air_exec.Engine.stepped;
  addi "exec.skipped_ticks" st.Air_exec.Engine.skipped;
  Scanf.sscanf
    (Air_exec.Profiler.to_json profiler)
    ("{\"schema\":\"air-profile/1\",\"simulated\":%_d,\"buckets\":"
    ^^ "{\"step\":{\"ticks\":%_d,\"calls\":%_d,\"seconds\":%f},"
    ^^ "\"batch\":{\"ticks\":%_d,\"runs\":%_d,\"seconds\":%f},"
    ^^ "\"skip\":{\"ticks\":%_d,\"spans\":%_d}},"
    ^^ "\"probes\":{\"total\":%d,\"successful\":%d,\"wasted\":%_d,"
    ^^ "\"seconds\":%f")
    (fun step batch probes successful probe ->
      add "exec.step_s" step;
      add "exec.batch_s" batch;
      addi "exec.probes" probes;
      addi "exec.probes_successful" successful;
      add "exec.probe_s" probe)

(* --- Traced rounds ------------------------------------------------------- *)

(* Each returns the systems whose layers were exercised, the fingerprints
   to check against the reference, and how many operations it attempted
   and saw fail. *)

let modules w =
  let cfg = span "config.load" (fun () -> module_config w) in
  let sys = span "config.create" (fun () -> System.create cfg) in
  let profiler = Air_exec.Profiler.create () in
  let engine = Air_exec.Engine.create ~profiler sys in
  (* A tenth of a chunk per call, so the document's 32-frame telemetry
     ring is read before it wraps. *)
  let seen = ref 0 in
  span "round" (fun () ->
      for _ = 1 to 10 * ops_per_round w do
        Air_exec.Engine.advance engine ~ticks:(ticks_per_chunk w / 10);
        harvest seen sys
      done);
  profile engine profiler;
  ([ sys ], [ ("fingerprint", fingerprint sys) ], 1, 0)

let advance_fleet fleet =
  for _ = 1 to ops_per_round Constellation do
    Air_fleet.Fleet.run fleet ~ticks:(ticks_per_chunk Constellation)
  done;
  Air_fleet.Fleet.close fleet

let fleet () =
  let cluster = span "config.load" constellation in
  let fleet =
    span "config.create" (fun () -> Air_fleet.Fleet.create ~domains:1 cluster)
  in
  span "round" (fun () -> advance_fleet fleet);
  let stats = Air_fleet.Fleet.stats fleet in
  let windows = ref 0 and null_windows = ref 0 in
  for i = 0 to Air_obs.Fleet_stats.domains stats - 1 do
    let sh = Air_obs.Fleet_stats.shard stats i in
    addi "exec.stepped_ticks" sh.Air_obs.Fleet_stats.sh_stepped;
    addi "exec.skipped_ticks" sh.sh_skipped;
    add "fleet.blocked_s" sh.sh_blocked_s;
    windows := !windows + sh.sh_windows;
    null_windows := !null_windows + sh.sh_null_windows
  done;
  addi "fleet.windows" (Air_obs.Fleet_stats.windows stats);
  set "fleet.null_window_frac"
    (float_of_int !null_windows /. float_of_int (max 1 !windows));
  addi "fleet.transferred" (Cluster.stats cluster).Cluster.transferred;
  let fingerprints = [ ("fingerprint", Air_fleet.Fleet.fingerprint cluster) ] in
  (* Never more domains than the machine has cores. *)
  let fingerprints =
    if Domain.recommended_domain_count () < 2 then fingerprints
    else begin
      let cluster = constellation () in
      let fleet = Air_fleet.Fleet.create ~domains:2 cluster in
      let (), wall = time (fun () -> advance_fleet fleet) in
      set "fleet.domains2_s" wall;
      ("fingerprint.domains2", Air_fleet.Fleet.fingerprint cluster)
      :: fingerprints
    end
  in
  (Array.to_list (Cluster.systems cluster), fingerprints, 1, 0)

let sweep ~seed =
  let specs = campaigns () in
  let path = leo_path () in
  let make () =
    let cfg =
      span "config.load" (fun () -> ok path (Air_config.Loader.load_file path))
    in
    Air_faults.Engine.Module
      (span "config.create" (fun () -> System.create cfg))
  in
  let runs =
    span "round" (fun () ->
        List.init (ops_per_round Campaign_sweep) (fun i ->
            let spec = campaign specs ~seed ~round:(-1) i in
            let run =
              span "faults.execute" (fun () ->
                  Air_faults.Engine.execute ~turbo:true ~make spec)
            in
            let plan =
              span "faults.plan" (fun () ->
                  Air_faults.Campaign.plan spec ~mtf:run.Air_faults.Engine.mtf)
            in
            addi "faults.injections" (List.length plan);
            let verdict =
              span "faults.oracle" (fun () -> Air_faults.Oracle.check run)
            in
            let reproducible =
              span "faults.reproduce" (fun () ->
                  Air_faults.Engine.reproducible ~turbo:true ~make spec)
            in
            (spec, run, Air_faults.Oracle.passed verdict && reproducible)))
  in
  (* Each campaign's per-tick reference, outside the round. *)
  let make_plain = Round.leo_target () in
  let failed =
    List.filter
      (fun (spec, run, ok) ->
        let reference =
          span "exec.per_tick" (fun () ->
              Air_faults.Engine.execute ~turbo:false ~make:make_plain spec)
        in
        not
          (ok
          && reference.Air_faults.Engine.fingerprint
             = run.Air_faults.Engine.fingerprint))
      runs
  in
  let systems =
    List.concat_map
      (fun (_, run, _) ->
        [ Air_faults.Engine.system run; Air_faults.Engine.baseline_system run ])
      runs
  in
  List.iter (fun sys -> harvest (ref 0) sys) systems;
  (systems, [], List.length runs, List.length failed)

(* --- Replays ------------------------------------------------------------- *)

(* Time [op] on fresh state for [count] calls (at least enough for a
   stable per-call cost) and report ns per call and the seconds [count]
   calls take. *)
let replay ~ns ~total ~count op =
  let calls = max count 200_000 in
  let (), dt = time (fun () -> for i = 0 to calls - 1 do op i done) in
  let per_call = dt /. float_of_int calls in
  set ns (per_call *. 1e9);
  set total (per_call *. float_of_int count)

let pmk_tick (cfg : System.config) =
  let partition_count = List.length cfg.partitions in
  match cfg.cores with
  | Some n when n > 1 ->
    let lanes =
      Pmk_mc.create ?initial_schedule:cfg.initial_schedule ~partition_count
        (List.map (Air_model.Multicore.shard ~cores:n) cfg.schedules)
    in
    fun _ -> ignore (Pmk_mc.tick lanes)
  | Some _ | None ->
    let pmk =
      Pmk.create ?initial_schedule:cfg.initial_schedule ~partition_count
        cfg.schedules
    in
    fun _ -> ignore (Pmk.tick pmk)

(* Algorithm 3 on a store holding one far deadline per process of the
   first partition: the no-violation path every active tick takes. *)
let pal_announce (cfg : System.config) =
  let pal = Pal.create ~partition:(Air_model.Ident.Partition_id.make 0) () in
  (match cfg.partitions with
  | setup :: _ ->
    Array.iteri
      (fun p _ -> Pal.register_deadline pal ~process:p (1 lsl 40))
      setup.partition.Air_model.Partition.processes
  | [] -> ());
  let announce_to_pos ~now:_ ~elapsed:_ = () in
  fun i -> ignore (Pal.announce_ticks pal ~now:i ~elapsed:1 ~announce_to_pos)

(* Heir selection on the round's own kernels, in turn. *)
let pos_schedule systems =
  let kernels =
    Array.of_list
      (List.concat_map
         (fun sys ->
           List.map
             (fun p -> (System.kernel_of sys p, System.now sys))
             (System.partition_ids sys))
         systems)
  in
  fun i ->
    let kernel, now = kernels.(i mod Array.length kernels) in
    ignore (Air_pos.Kernel.schedule_idx kernel ~now)

(* Every channel of the network in turn: a write then a read at its first
   destination, on a fresh router. *)
let ipc_op (network : Air_ipc.Port.network) =
  let router = Air_ipc.Router.create network in
  let port name =
    List.find (fun (p : Air_ipc.Port.config) -> p.name = name) network.ports
  in
  let ops =
    List.concat_map
      (fun (ch : Air_ipc.Port.channel) ->
        let src = port ch.source and dst = port (List.hd ch.destinations) in
        let msg = Bytes.make (min 16 src.max_message_size) 'x' in
        match src.kind with
        | Air_ipc.Port.Sampling _ ->
          [ (fun now ->
              ignore
                (Air_ipc.Router.write_sampling router ~caller:src.partition
                   ~port:src.name ~now msg));
            (fun now ->
              ignore
                (Air_ipc.Router.read_sampling router ~caller:dst.partition
                   ~port:dst.name ~now)) ]
        | Air_ipc.Port.Queuing _ ->
          [ (fun now ->
              ignore
                (Air_ipc.Router.send_queuing router ~caller:src.partition
                   ~port:src.name ~now msg));
            (fun now ->
              ignore
                (Air_ipc.Router.receive_queuing ~now router
                   ~caller:dst.partition ~port:dst.name)) ])
      network.channels
    |> Array.of_list
  in
  fun i -> if ops <> [||] then ops.(i mod Array.length ops) i

let contention_charge (cfg : System.config) =
  match cfg.contention with
  | None -> fun _ -> ()
  | Some c ->
    let partitions = List.length cfg.partitions in
    let lanes = max 1 (Option.value cfg.cores ~default:1) in
    let model = Air_spatial.Contention.create ~partitions ~lanes c in
    fun i ->
      let partition = i mod partitions in
      if i mod 2000 = 0 then Air_spatial.Contention.rollover model ~now:i;
      Air_spatial.Contention.set_lane model (i mod lanes);
      ignore (Air_spatial.Contention.charge model ~partition ~cost:1);
      if Air_spatial.Contention.stall_pending model ~partition then
        Air_spatial.Contention.consume_stall model ~partition

(* TLB-served reads inside the first partition's data region. *)
let mmu_access cfg =
  let sys = System.create cfg in
  let p0 = Air_model.Ident.Partition_id.make 0 in
  match System.region_of sys p0 Air_spatial.Memory.Data with
  | None -> fun _ -> ()
  | Some region ->
    let prot = System.protection sys in
    fun i ->
      ignore
        (Air_spatial.Protection.access prot ~partition:p0
           ~level:Air_spatial.Memory.Application ~access:Air_spatial.Mmu.Read
           (region.Air_spatial.Memory.base + (8 * (i land 63))))

let replays w systems =
  let count name = int_of_float (get name) in
  let stepped = count "exec.stepped_ticks" in
  let cfg () = layer_config w in
  replay ~ns:"pmk.tick_ns" ~total:"pmk.replay_s" ~count:stepped
    (pmk_tick (cfg ()));
  replay ~ns:"pal.announce_ns" ~total:"pal.replay_s" ~count:stepped
    (pal_announce (cfg ()));
  replay ~ns:"pos.schedule_ns" ~total:"pos.replay_s" ~count:stepped
    (pos_schedule systems);
  replay ~ns:"ipc.op_ns" ~total:"ipc.replay_s"
    ~count:(count "ipc.messages_sent" + count "ipc.messages_received")
    (ipc_op (cfg ()).network);
  replay ~ns:"contention.charge_ns" ~total:"contention.replay_s"
    ~count:(count "contention.demand")
    (contention_charge (cfg ()));
  replay ~ns:"mmu.access_ns" ~total:"mmu.replay_s"
    ~count:(count "tlb.hits" + count "tlb.misses")
    (mmu_access (cfg ()));
  set "spatial.replay_s" (get "contention.replay_s" +. get "mmu.replay_s")

(* --- The pass ------------------------------------------------------------ *)

(* Every per-layer metric with its unit, in report order (BENCHMARK.json
   lists the same names with the direction that is better). The chunk
   statistics come from the untraced rounds. *)
let table =
  [ ("exec.stepped_ticks", "count");
    ("exec.skipped_ticks", "count");
    ("exec.skip_frac", "ratio");
    ("exec.probes", "count");
    ("exec.probe_yield", "ratio");
    ("exec.step_s", "s");
    ("exec.batch_s", "s");
    ("exec.probe_s", "s");
    ("exec.per_tick_s", "s");
    ("exec.speedup", "ratio");
    ("pmk.ticks", "count");
    ("pmk.context_switches", "count");
    ("pmk.schedule_switches", "count");
    ("pmk.tick_ns", "ns");
    ("pmk.replay_s", "s");
    ("pal.deadlines_registered", "count");
    ("pal.deadline_violations", "count");
    ("pal.announce_ns", "ns");
    ("pal.replay_s", "s");
    ("pos.schedule_ns", "ns");
    ("pos.replay_s", "s");
    ("ipc.messages_sent", "count");
    ("ipc.messages_received", "count");
    ("ipc.bytes_copied", "bytes");
    ("ipc.op_ns", "ns");
    ("ipc.replay_s", "s");
    ("contention.demand", "count");
    ("contention.throttled_ticks", "count");
    ("contention.charge_ns", "ns");
    ("tlb.hits", "count");
    ("tlb.misses", "count");
    ("mmu.walks", "count");
    ("mmu.faults", "count");
    ("mmu.access_ns", "ns");
    ("spatial.replay_s", "s");
    ("obs.events", "count");
    ("obs.trace_retained", "count");
    ("obs.spans", "count");
    ("obs.flow_records", "count");
    ("obs.telemetry_frames", "count");
    ("obs.dropped", "count");
    ("obs.sinks_s", "s");
    ("fleet.windows", "count");
    ("fleet.null_window_frac", "ratio");
    ("fleet.transferred", "count");
    ("fleet.blocked_s", "s");
    ("fleet.domains2_s", "s");
    ("faults.injections", "count");
    ("faults.plan_s", "s");
    ("faults.execute_s", "s");
    ("faults.oracle_s", "s");
    ("faults.reproduce_s", "s");
    ("config.loads", "count");
    ("config.load_s", "s");
    ("config.create_s", "s");
    ("core.residual_s", "s");
    ("layers.coverage", "ratio");
    ("trace_overhead", "ratio");
    ("chunk_ms_p50", "ms");
    ("chunk_ms_p90", "ms");
    ("chunk_n", "count") ]

type result = {
  values : (string * float) list;  (** [table] less the chunk statistics. *)
  fingerprints : (string * string) list;  (** Each must equal the reference. *)
  attempted : int;  (** The round, or its campaigns. *)
  failed : int;  (** Campaigns not contained, reproducible or per-tick equal. *)
}

(* [untraced] is the median wall time of an untraced round, [per_tick]
   the reference run's, [bare] an untraced round's without the recorder
   and causal tracker (leo-observed-2core only). *)
let run w ~seed ~untraced ~per_tick ~bare =
  let systems, fingerprints, attempted, failed =
    match w with
    | Leo | Leo_observed -> modules w
    | Constellation -> fleet ()
    | Campaign_sweep -> sweep ~seed
  in
  List.iter observe systems;
  (* Heir selection mutates the kernels: replay after fingerprinting. *)
  replays w systems;
  let total = totals () in
  let count name = let n, _, _ = total name in float_of_int n in
  let incl name = let _, i, _ = total name in i in
  let self name = let _, _, s = total name in s in
  let wall = incl "round" in
  set "config.loads" (count "config.load");
  set "config.load_s" (self "config.load");
  set "config.create_s" (self "config.create");
  List.iter
    (fun phase -> set ("faults." ^ phase ^ "_s") (self ("faults." ^ phase)))
    [ "plan"; "execute"; "oracle"; "reproduce" ];
  (match w with
  | Campaign_sweep ->
    set "exec.per_tick_s" (incl "exec.per_tick");
    set "exec.speedup" (incl "exec.per_tick" /. incl "faults.execute")
  | Leo | Leo_observed | Constellation ->
    set "exec.per_tick_s" per_tick;
    set "exec.speedup" (per_tick /. untraced));
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let stepped = get "exec.stepped_ticks"
  and skipped = get "exec.skipped_ticks" in
  set "exec.skip_frac" (ratio skipped (stepped +. skipped));
  set "exec.probe_yield"
    (ratio (get "exec.probes_successful") (get "exec.probes"));
  set "obs.sinks_s" (match bare with Some b -> untraced -. b | None -> 0.0);
  let replayed =
    List.fold_left
      (fun s name -> s +. get name)
      (get "obs.sinks_s")
      [ "pmk.replay_s"; "pal.replay_s"; "pos.replay_s"; "ipc.replay_s";
        "spatial.replay_s" ]
  in
  let engine = get "exec.step_s" +. get "exec.batch_s" in
  set "core.residual_s" (if engine > 0.0 then engine -. replayed else 0.0);
  (* Attributed time: the layer spans nested in the round where there are
     any (campaign phases, which contain the replayed layers); otherwise
     the engine's split (or, without a profiler, the replays alone) and
     barrier waits. *)
  let nested = wall -. self "round" in
  set "layers.coverage"
    ((if nested > 0.0 then nested
      else
        replayed +. get "core.residual_s" +. get "exec.probe_s"
        +. get "fleet.blocked_s")
    /. wall);
  set "trace_overhead" (wall /. untraced);
  { values =
      List.filter_map
        (fun (name, _) ->
          if String.starts_with ~prefix:"chunk_" name then None
          else Some (name, get name))
        table;
    fingerprints;
    attempted;
    failed }
