open Air
open Air_sim

(* One gateway drain, buffered on the owning shard during a window and
   replayed through the cluster at the barrier. [(clock, link, fifo)] is
   the position the drain would have had in the sequential pump — the
   global replay order. *)
type send = {
  n_clock : Time.t;
  n_link : int;
  n_fifo : int;
  n_payload : bytes;
  n_cid : Air_obs.Causal.id;
}

let send_cmp a b =
  match Stdlib.compare a.n_clock b.n_clock with
  | 0 -> (
    match Stdlib.compare a.n_link b.n_link with
    | 0 -> Stdlib.compare a.n_fifo b.n_fifo
    | c -> c)
  | c -> c

(* Window barrier shared between the coordinator (shard 0, the calling
   domain) and the worker domains (shards 1..D-1). All cross-domain data —
   agendas, outboxes, counters — is written before and read after an
   epoch/pending handshake under [mu], so the OCaml memory model orders
   every access; the per-shard outboxes are the "mutex-guarded mailboxes"
   of the protocol, bounded by construction (a window's sends). *)
type ctl = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable epoch : int;
  mutable w_from : Time.t;
  mutable w_upto : Time.t;
  mutable w_last : bool;
  mutable pending : int;
  mutable stop : bool;
  mutable failed : exn option;
}

type t = {
  cluster : Cluster.t;
  domains : int;
  lookahead : Time.t;
  links : Cluster.link array;
  gateways : Air_ipc.Router.port array;
      (* By link: the gateway's ID in its source module, bound by
         [Cluster.create]. *)
  links_of : (int * Air_ipc.Router.port) list array;
      (* Per module: its outbound links as (global index, gateway ID), in
         global (drain) order. *)
  shard_modules : int array array;
  mutable engines : Air_exec.Engine.t array;
  at : Time.t array;
      (* Per module: the barrier it has been advanced to. A module with
         nothing to do in a window lags behind the cluster clock until it
         next enters one; the last window of every run catches all up. *)
  next : Time.t array;
      (* Per module: the earliest tick at which it could do more than let
         time pass ({!next_work}), refreshed whenever it runs. *)
  agendas : Cluster.transfer list array;
      (* Per module, the current window's arrivals in reverse delivery
         order (reversed once at use). *)
  forced : bool array;
      (* Per module: a gateway was found occupied at the barrier (message
         delivered or redelivered into a forwarding gateway), so the first
         tick of the window must execute and drain. *)
  outboxes : send list ref array;  (* Per shard, reverse buffer order. *)
  win_delivered : int array;  (* Per shard, this window — merged then zeroed. *)
  win_dropped : int array;
  stats : Air_obs.Fleet_stats.t;
  mutable ctl : ctl option;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let domains t = t.domains
let stats t = t.stats

(* --- Per-module advance ------------------------------------------------- *)

(* Drain module [mi]'s gateways into its shard's outbox, recording the
   sequential drain position [(clock, link, fifo)]. Called from the
   engine's per-tick hook (clock = the module's own clock, which tracks
   the global one) and explicitly at forced drain instants, with the
   global instant the sequential pump would have used (a halted module's
   own clock froze). *)
let drain_module t si mi ~clock =
  let sys = (Cluster.systems t.cluster).(mi) in
  let sh = Air_obs.Fleet_stats.shard t.stats si in
  let box = t.outboxes.(si) in
  List.iter
    (fun (gidx, port) ->
      let rec pump fifo =
        match System.drain_remote sys ~port with
        | None -> ()
        | Some (payload, cid) ->
          box :=
            { n_clock = clock;
              n_link = gidx;
              n_fifo = fifo;
              n_payload = payload;
              n_cid = cid }
            :: !box;
          sh.sh_sent <- sh.sh_sent + 1;
          pump (fifo + 1)
      in
      pump 0)
    t.links_of.(mi)

let hook t si mi () =
  (* The sequential pump drains after the clock increments: a send made
     while executing tick [k] is drained at clock [k + 1]. *)
  let sys = (Cluster.systems t.cluster).(mi) in
  drain_module t si mi ~clock:(Time.add (System.now sys) 1)

(* Advance module [mi] across the window (from, upto], interleaving its
   private engine with the window's due arrivals exactly as the
   sequential cluster would: execute up to an arrival instant, deliver,
   and force a drain at [arrival+1] — the sequential drain instant — so a
   message delivered into a forwarding gateway is pumped then, even
   though the module itself may skip that tick. A forced drain advances
   the engine to the instant and pumps explicitly, whether the tick was
   stepped (its hook already emptied the gateways) or skipped; a halted
   module's engine freezes its clock (as per-tick execution does), and
   deliveries still land in its ports.

   Returns the engine's probe report when no delivery came after the last
   advance, else -1: an arrival at [upto] itself is delivered with no
   advance after it, and may wake a process the report knows nothing
   of. *)
let run_module t si mi ~from ~upto =
  let eng = t.engines.(mi) in
  let sys = (Cluster.systems t.cluster).(mi) in
  let sh = Air_obs.Fleet_stats.shard t.stats si in
  (* A lagging module's first advance also skips the quiet ticks it
     missed. *)
  let cur = ref t.at.(mi) in
  let force = ref (if t.forced.(mi) then Some (from + 1) else None) in
  let delivered_last = ref false in
  let advance target =
    (match !force with
    | Some f when Time.(f <= target) ->
      sh.sh_forced <- sh.sh_forced + 1;
      Air_exec.Engine.advance eng ~ticks:(f - !cur);
      delivered_last := false;
      drain_module t si mi ~clock:f;
      force := None;
      cur := f
    | Some _ | None -> ());
    if Time.(!cur < target) then begin
      Air_exec.Engine.advance eng ~ticks:(target - !cur);
      delivered_last := false;
      cur := target
    end
  in
  List.iter
    (fun (tr : Cluster.transfer) ->
      advance tr.arrival;
      (match
         System.deliver_remote ~cid:tr.cid sys ~port:tr.target_port
           tr.payload
       with
      | Ok () ->
        sh.sh_delivered <- sh.sh_delivered + 1;
        t.win_delivered.(si) <- t.win_delivered.(si) + 1
      | Error _ ->
        sh.sh_dropped <- sh.sh_dropped + 1;
        t.win_dropped.(si) <- t.win_dropped.(si) + 1);
      delivered_last := true;
      if Time.(tr.arrival < upto) then force := Some (tr.arrival + 1))
    (List.rev t.agendas.(mi));
  t.agendas.(mi) <- [];
  advance upto;
  t.at.(mi) <- upto;
  if !delivered_last then -1 else Air_exec.Engine.next_proved eng

(* The earliest tick at which module [mi], advanced to its barrier, could
   do more than let time pass: the skip-ahead probe's answer when it is
   quiescent, its very next tick when it is not, never once halted. *)
let next_work t mi =
  let sys = (Cluster.systems t.cluster).(mi) in
  if Option.is_some (System.halted sys) then Time.infinity
  else if System.quiescent sys then Air_exec.Clock.next_interesting sys
  else t.at.(mi)

(* A module enters the window when it has an arrival, an occupied gateway
   or work due inside it, and every module enters the last window of a
   run, so that every return is a barrier. Its next work is then the
   probe report of its last advance when that holds ([run_module]), and
   a fresh probe ([next_work]) otherwise. *)
let run_shard t si ~from ~upto ~last =
  let sh = Air_obs.Fleet_stats.shard t.stats si in
  let engine_sums () =
    Array.fold_left
      (fun (st, sk) mi ->
        let s = Air_exec.Engine.stats t.engines.(mi) in
        (st + s.Air_exec.Engine.stepped, sk + s.Air_exec.Engine.skipped))
      (0, 0) t.shard_modules.(si)
  in
  let stepped0, skipped0 = engine_sums () in
  let traffic0 = sh.sh_sent + sh.sh_delivered + sh.sh_dropped in
  Array.iter
    (fun mi ->
      if
        last || t.forced.(mi)
        || t.agendas.(mi) <> []
        || Time.(t.next.(mi) < upto)
      then begin
        let proved = run_module t si mi ~from ~upto in
        t.next.(mi) <- (if proved >= 0 then proved else next_work t mi)
      end)
    t.shard_modules.(si);
  let stepped1, skipped1 = engine_sums () in
  sh.sh_stepped <- sh.sh_stepped + (stepped1 - stepped0);
  sh.sh_skipped <- sh.sh_skipped + (skipped1 - skipped0);
  sh.sh_windows <- sh.sh_windows + 1;
  if
    stepped1 = stepped0
    && sh.sh_sent + sh.sh_delivered + sh.sh_dropped = traffic0
  then sh.sh_null_windows <- sh.sh_null_windows + 1

(* --- Barrier work (coordinator only) ------------------------------------ *)

(* Open the window after the barrier [from] and return its end. Flag
   modules whose gateways already hold messages (delivered or redelivered
   into a forwarding port since their last drain) so the window's first
   tick pumps them — the sequential cluster would drain them at
   [from + 1]. No module can send before tick [n], the earliest of every
   module's next work, the earliest arrival on the bus and, when a
   gateway is occupied, [from] itself; a send in tick [k] drains at
   [k + 1] and arrives no earlier than [k + 1 + L], so nothing sent inside
   [(from, n + L]] arrives inside it. Pop the window's incoming traffic
   off the bus and hand each transfer to its target module's agenda. *)
let distribute t ~from ~fin =
  Array.fill t.forced 0 (Array.length t.forced) false;
  let sys = Cluster.systems t.cluster in
  let n =
    ref (Array.fold_left Time.min (Cluster.next_arrival t.cluster) t.next)
  in
  Array.iteri
    (fun i (l : Cluster.link) ->
      if System.remote_pending sys.(l.from_module) ~port:t.gateways.(i) > 0
      then begin
        t.forced.(l.from_module) <- true;
        n := from
      end)
    t.links;
  let upto = Time.min fin (Time.add (Time.max from !n) t.lookahead) in
  List.iter
    (fun (tr : Cluster.transfer) ->
      t.agendas.(tr.target_module) <- tr :: t.agendas.(tr.target_module))
    (Cluster.take_due t.cluster ~upto);
  upto

(* Replay every buffered drain through the cluster in the sequential pump
   order — (clock, link, fifo) — reproducing bus occupancy, arrival
   instants and serialization seqs bit for bit, then merge the per-shard
   delivery counters and land the cluster clock on the barrier. *)
let merge t ~upto =
  let sends =
    List.sort send_cmp
      (Array.fold_left
         (fun acc box ->
           let s = !box in
           box := [];
           List.rev_append s acc)
         [] t.outboxes)
  in
  List.iter
    (fun s ->
      Cluster.send_via t.cluster ~at:s.n_clock ~link:s.n_link ~cid:s.n_cid
        s.n_payload)
    sends;
  Air_obs.Fleet_stats.note_replayed t.stats (List.length sends);
  for si = 0 to t.domains - 1 do
    Cluster.account t.cluster ~transferred:t.win_delivered.(si)
      ~dropped:t.win_dropped.(si);
    t.win_delivered.(si) <- 0;
    t.win_dropped.(si) <- 0
  done;
  Cluster.set_clock t.cluster upto;
  Air_obs.Fleet_stats.note_window t.stats

(* --- Domains ------------------------------------------------------------ *)

let worker t ctl si =
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock ctl.mu;
    let t0 = Unix.gettimeofday () in
    while ctl.epoch = !my_epoch && not ctl.stop do
      Condition.wait ctl.cv ctl.mu
    done;
    let sh = Air_obs.Fleet_stats.shard t.stats si in
    sh.sh_blocked_s <- sh.sh_blocked_s +. (Unix.gettimeofday () -. t0);
    if ctl.stop then begin
      Mutex.unlock ctl.mu;
      running := false
    end
    else begin
      my_epoch := ctl.epoch;
      let from = ctl.w_from and upto = ctl.w_upto and last = ctl.w_last in
      Mutex.unlock ctl.mu;
      (try run_shard t si ~from ~upto ~last
       with e ->
         Mutex.lock ctl.mu;
         if ctl.failed = None then ctl.failed <- Some e;
         Mutex.unlock ctl.mu);
      Mutex.lock ctl.mu;
      ctl.pending <- ctl.pending - 1;
      if ctl.pending = 0 then Condition.broadcast ctl.cv;
      Mutex.unlock ctl.mu
    end
  done

let ensure_workers t =
  if t.domains > 1 && t.ctl = None then begin
    let ctl =
      { mu = Mutex.create ();
        cv = Condition.create ();
        epoch = 0;
        w_from = 0;
        w_upto = 0;
        w_last = false;
        pending = 0;
        stop = false;
        failed = None }
    in
    t.ctl <- Some ctl;
    t.workers <-
      List.init (t.domains - 1) (fun i ->
          Domain.spawn (fun () -> worker t ctl (i + 1)))
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.ctl with
    | None -> ()
    | Some ctl ->
      Mutex.lock ctl.mu;
      ctl.stop <- true;
      Condition.broadcast ctl.cv;
      Mutex.unlock ctl.mu;
      List.iter Domain.join t.workers;
      t.workers <- [];
      t.ctl <- None
  end

(* --- The windowed run --------------------------------------------------- *)

let run t ~ticks =
  if t.closed then invalid_arg "Fleet.run: fleet is closed";
  if ticks > 0 then begin
    ensure_workers t;
    (* Callers may inject faults between runs, which can wake any
       module. *)
    Array.iteri (fun mi _ -> t.next.(mi) <- next_work t mi) t.next;
    let fin = Time.add (Cluster.now t.cluster) ticks in
    let rec loop from =
      if Time.(from < fin) then begin
        let upto = distribute t ~from ~fin in
        let last = upto = fin in
        (match t.ctl with
        | Some ctl ->
          Mutex.lock ctl.mu;
          ctl.w_from <- from;
          ctl.w_upto <- upto;
          ctl.w_last <- last;
          ctl.pending <- t.domains - 1;
          ctl.epoch <- ctl.epoch + 1;
          Condition.broadcast ctl.cv;
          Mutex.unlock ctl.mu;
          run_shard t 0 ~from ~upto ~last;
          Mutex.lock ctl.mu;
          let t0 = Unix.gettimeofday () in
          while ctl.pending > 0 do
            Condition.wait ctl.cv ctl.mu
          done;
          let sh0 = Air_obs.Fleet_stats.shard t.stats 0 in
          sh0.sh_blocked_s <-
            sh0.sh_blocked_s +. (Unix.gettimeofday () -. t0);
          let failure = ctl.failed in
          ctl.failed <- None;
          Mutex.unlock ctl.mu;
          (match failure with Some e -> raise e | None -> ())
        | None -> run_shard t 0 ~from ~upto ~last);
        merge t ~upto;
        loop upto
      end
    in
    loop (Cluster.now t.cluster)
  end

let create ?(domains = 1) cluster =
  if domains < 1 then invalid_arg "Fleet.create: domains must be >= 1";
  let systems = Cluster.systems cluster in
  let n = Array.length systems in
  let links = Cluster.links cluster in
  let gateways = Cluster.gateways cluster in
  let la = Cluster.lookahead cluster in
  if la < 1 then
    invalid_arg
      "Fleet.create: a zero-latency link leaves no conservative lookahead \
       window";
  let domains = Int.max 1 (Int.min domains n) in
  let links_of = Array.make n [] in
  Array.iteri
    (fun gidx (l : Cluster.link) ->
      links_of.(l.from_module) <-
        (gidx, gateways.(gidx)) :: links_of.(l.from_module))
    links;
  Array.iteri (fun i ls -> links_of.(i) <- List.rev ls) links_of;
  let shard_modules =
    Array.init domains (fun si ->
        Array.of_list
          (List.filter (fun mi -> mi mod domains = si) (List.init n Fun.id)))
  in
  let t =
    { cluster;
      domains;
      lookahead = la;
      links;
      gateways;
      links_of;
      shard_modules;
      engines = [||];
      at = Array.make n (Cluster.now cluster);
      next = Array.make n Time.zero;
      agendas = Array.make n [];
      forced = Array.make n false;
      outboxes = Array.init domains (fun _ -> ref []);
      win_delivered = Array.make domains 0;
      win_dropped = Array.make domains 0;
      stats =
        Air_obs.Fleet_stats.create ~domains
          ~lookahead:(if Time.is_infinite la then -1 else la)
          ~modules_per_shard:(Array.map Array.length shard_modules);
      ctl = None;
      workers = [];
      closed = false }
  in
  t.engines <-
    Array.init n (fun mi ->
        Air_exec.Engine.create
          ~on_tick:(hook t (mi mod domains) mi)
          systems.(mi));
  t

(* --- Fingerprint -------------------------------------------------------- *)

let fingerprint_text cluster =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "clock=%d@." (Cluster.now cluster);
  let st = Cluster.stats cluster in
  Format.fprintf ppf "bus transferred=%d dropped=%d in_flight=%d busy=%d@."
    st.Cluster.transferred st.Cluster.dropped st.Cluster.in_flight
    st.Cluster.bus_busy_until;
  List.iter
    (fun (tr : Cluster.transfer) ->
      Format.fprintf ppf "wire %d/%d -> m%d:%s %s@." tr.arrival tr.seq
        tr.target_module
        (Air_ipc.Router.port_name
           (System.router (Cluster.systems cluster).(tr.target_module))
           tr.target_port)
        (Digest.to_hex (Digest.bytes tr.payload)))
    (Cluster.in_flight_transfers cluster);
  Array.iteri
    (fun i sys ->
      Format.fprintf ppf "module %d now=%d halt=%s hm=%d violations=%d@." i
        (System.now sys)
        (match System.halted sys with None -> "-" | Some r -> r)
        (Hm.error_count (System.hm sys))
        (List.length (System.violations sys));
      List.iter
        (fun pid ->
          Format.fprintf ppf "  mode %a=%a@." Air_model.Ident.Partition_id.pp
            pid Air_model.Partition.pp_mode
            (System.partition_mode sys pid))
        (System.partition_ids sys);
      List.iter
        (fun (k, n) -> Format.fprintf ppf "  event %s=%d@." k n)
        (System.event_counts sys);
      List.iter
        (fun (time, ev) ->
          Format.fprintf ppf "  trace %d %a@." time Air_model.Event.pp ev)
        (Air_sim.Trace.to_list (System.trace sys));
      Format.fprintf ppf "  telemetry %s@."
        (Digest.to_hex
           (Digest.string
              (Air_obs.Telemetry.to_json (System.telemetry_frames sys))));
      List.iter
        (fun (e : Air_obs.Causal.entry) ->
          Format.fprintf ppf "  flow %d %s t=%d track=%d@." e.Air_obs.Causal.id
            (match e.Air_obs.Causal.kind with
            | Air_obs.Causal.Send -> "send"
            | Air_obs.Causal.Receive -> "receive"
            | Air_obs.Causal.Forward -> "forward"
            | Air_obs.Causal.Perturb p -> Air_obs.Causal.perturbation_label p)
            e.Air_obs.Causal.time e.Air_obs.Causal.track)
        (System.flow_entries sys))
    (Cluster.systems cluster);
  Format.pp_print_flush ppf ();
  Buffer.contents b

let fingerprint cluster = Digest.to_hex (Digest.string (fingerprint_text cluster))

(* --- Campaigns over fleets ---------------------------------------------- *)

(* The campaign observes module 0. *)
let campaign_target t =
  Air_faults.Engine.Driver
    { Air_faults.Engine.d_system = (Cluster.systems t.cluster).(0);
      d_advance = (fun ticks -> run t ~ticks);
      d_link_fault =
        (fun f ->
          if Cluster.inject_bus_fault t.cluster f then
            Some (Cluster.last_perturbed t.cluster)
          else None) }

let execute_campaign ?(domains = 1) ~make spec =
  let fleets = ref [] in
  let mk () =
    let fleet = create ~domains (make ()) in
    fleets := fleet :: !fleets;
    campaign_target fleet
  in
  Fun.protect
    ~finally:(fun () -> List.iter close !fleets)
    (fun () -> Air_faults.Engine.execute ~make:mk spec)
