(* One observation of a module or cluster: named sections, each the
   [Marshal] image of closure-free state, compared and digested as bytes.
   See the interface for what each section holds. *)

open Air_sim
open Air_pos
open Air_ipc
open Runtime

type t = (string * string) list

let section prefix name v =
  (prefix ^ name, Marshal.to_string v [ Marshal.No_sharing ])

let sections prefix (s : Runtime.t) =
  let section name v = section prefix name v in
  let prts = Array.to_list s.partitions in
  [ section "clock" (now s, s.halt_reason);
    section "partitions"
      (List.map (fun p -> (p.mode, p.jitter_left, p.jitter_deferred)) prts);
    section "schedule"
      (List.init (Pmk_mc.core_count s.lane) (fun i ->
           let pmk = Pmk_mc.core s.lane i in
           ( Pmk.current_schedule pmk,
             Pmk.next_schedule pmk,
             Pmk.last_schedule_switch pmk,
             Pmk.active_partition pmk,
             Pmk.ticks pmk )));
    section "processes"
      (List.map
         (fun p ->
           Array.mapi
             (fun q task ->
               ( Kernel.status p.kernel q,
                 Kernel.activations p.kernel q,
                 task.pc,
                 task.compute_left ))
             p.tasks)
         prts);
    section "intra" (List.map (fun p -> Intra.observe p.intra) prts);
    section "ports"
      (List.map
         (fun (port, _) -> Router.contents s.router port)
         (Router.port_names s.router));
    section "contention"
      (match s.contention with
      | None -> []
      | Some c ->
        List.init (Array.length s.partitions) (fun i ->
            Air_spatial.Contention.
              ( demand c i,
                throttled c i,
                stall_debt c i,
                pressure c i,
                blown c i,
                budget c i )));
    section "hm" (Hm.error_count s.hm);
    section "events" s.events;
    section "trace"
      (Trace.total s.trace, Trace.length s.trace, Trace.digest s.trace);
    section "telemetry" (System.telemetry_frames s);
    section "flows" (System.flow_entries s);
    section "spans"
      (match s.cfg.recorder with
      | None -> ([], [])
      | Some r -> Air_obs.Span.(spans r, open_spans r ~now:(now s)));
    section "metrics" (System.metrics_snapshot s) ]

let system s = sections "" s

let cluster c =
  section "" "bus"
    (Cluster.now c, Cluster.stats c, Cluster.in_flight_transfers c)
  :: List.concat
       (List.mapi
          (fun i s -> sections (Printf.sprintf "m%d." i) s)
          (Array.to_list (Cluster.systems c)))

let to_text t =
  String.concat ""
    (List.map
       (fun (name, image) ->
         name ^ " " ^ Digest.to_hex (Digest.string image) ^ "\n")
       t)

let digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.concat_map (fun (n, image) -> [ n; image ]) t)))

let rec first_difference a b =
  match (a, b) with
  | (n, x) :: a, (m, y) :: b when String.equal n m && String.equal x y ->
    first_difference a b
  | (n, _) :: _, _ | [], (n, _) :: _ -> Some n
  | [], [] -> None
