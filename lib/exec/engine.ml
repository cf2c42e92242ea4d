open Air

type mode = Per_tick | Adaptive

type stats = {
  mutable stepped : int;
  mutable skipped : int;
  mutable probes : int;
}

type t = {
  system : System.t;
  mode : mode;
  stats : stats;
  (* Adaptive state: [density] is a fixed-point (scale 256) EWMA of how
     "interesting" recent ticks were — 256 means every evaluated tick did
     work or could not be skipped, 0 means long quiet spans. While the
     estimate sits above [dense_threshold] the engine stops probing
     [Clock.next_interesting] and runs blind per-tick batches of [blind]
     ticks (doubling up to [blind_max]), so a dense workload pays the
     probe on a vanishing fraction of ticks. *)
  mutable density : int;
  mutable blind : int;
  (* Consecutive quiescent ticks seen while the estimate is dense — two in
     a row usually announce a real idle span rather than a one-tick gap,
     and trigger a (rate-limited) probe even before the estimate decays. *)
  mutable streak : int;
  (* The previous iteration ran a blind batch: if the module is quiescent
     right after one, the dense phase ended inside the batch (overshoot)
     and a probe — amortized by the batch — re-engages skipping at once. *)
  mutable just_batched : bool;
  mutable proved : Air_sim.Time.t;
      (* The next interesting tick the last probe proved, or -1 once a
         tick has been stepped since, or an advance has begun: if it is
         set when an advance returns, the advance ended on that probe's
         skip and the module sits still until then. *)
  on_tick : (unit -> unit) option;
      (* Fired after every tick executed through the per-tick path (and
         never across a skipped span, which is quiescent by proof): the
         fleet engine hangs its gateway pump here so cross-module sends
         are observed at exactly the tick that produced them. *)
  profiler : Profiler.t option;
      (* Null-object discipline: every instrumented operation matches on
         this once; [None] takes the original uninstrumented path, so an
         unprofiled engine pays a single branch per operation and no clock
         reads. *)
}

let scale = 256
let dense_threshold = 192
let blind_init = 16
let blind_max = 4096

let create ?profiler ?on_tick ?(mode = Adaptive) system =
  { system;
    mode;
    stats = { stepped = 0; skipped = 0; probes = 0 };
    density = 0;
    blind = blind_init;
    streak = 0;
    just_batched = false;
    proved = -1;
    on_tick;
    profiler }

let system t = t.system
let mode t = t.mode
let stats t = t.stats
let profiler t = t.profiler
let simulated t = t.stats.stepped + t.stats.skipped
let halted t = Option.is_some (System.halted t.system)
let next_proved t = t.proved

(* Probe for the next interesting tick and collapse the quiet span before
   it, clipped to the budget, with one O(1) batch clock update. Returns
   the number of ticks skipped (0 when the very next tick is already
   interesting). The caller has established quiescence. The probe looks
   past the budget, so an advance that ends on this skip knows where the
   module's next work lies ([proved]). [next - 1 - now] cannot overflow:
   [now >= 0] once quiescent, and [next] is at most [Time.infinity]. *)
let probe_raw t ~remaining =
  t.stats.probes <- t.stats.probes + 1;
  let now = Pmk_mc.ticks (System.lane t.system) in
  let next = Clock.next_interesting t.system in
  t.proved <- next;
  let span = Int.min (next - 1 - now) remaining in
  if span > 0 then begin
    System.skip t.system ~ticks:span;
    t.stats.skipped <- t.stats.skipped + span;
    span
  end
  else 0

let probe t ~remaining =
  match t.profiler with
  | None -> probe_raw t ~remaining
  | Some p ->
    let t0 = Profiler.timestamp () in
    let skipped = probe_raw t ~remaining in
    Profiler.note_probe p ~skipped ~seconds:(Profiler.timestamp () -. t0);
    skipped

(* One executed tick, plus the per-tick observer when one is hooked. A
   stepped tick may start work, so it voids the last probe's proof. *)
let step_raw t =
  t.proved <- -1;
  match t.on_tick with
  | None -> System.step t.system
  | Some f ->
    System.step t.system;
    f ()

(* [n] executed ticks. Without an observer this is [System.run] — the
   reference path; with one, the same per-tick loop with the hook fired
   after each step, so hooked and unhooked advances execute the module
   identically. *)
let run_raw t ~ticks =
  t.proved <- -1;
  match t.on_tick with
  | None -> System.run t.system ~ticks
  | Some f ->
    for _ = 1 to ticks do
      System.step t.system;
      f ()
    done

(* One tick through the per-tick path, attributed to the step bucket. *)
let step_one t =
  match t.profiler with
  | None -> step_raw t
  | Some p ->
    let t0 = Profiler.timestamp () in
    step_raw t;
    Profiler.note_step p ~seconds:(Profiler.timestamp () -. t0)

(* [n] ticks through [run_raw] (blind batch or a whole Per_tick-mode
   advance), attributed to the batch bucket. *)
let run_batch t ~ticks =
  match t.profiler with
  | None -> run_raw t ~ticks
  | Some p ->
    let t0 = Profiler.timestamp () in
    run_raw t ~ticks;
    Profiler.note_batch p ~ticks ~seconds:(Profiler.timestamp () -. t0)

let sample_density t =
  match t.profiler with
  | None -> ()
  | Some p -> Profiler.note_density p t.density

(* Adaptive: keep an estimate of interesting-tick density and only pay
   the probe while the workload looks sparse. Probing after every executed
   tick would skip maximally, but on a dense workload each executed tick
   would pay a probe that finds nothing.

   - a successful skip of [n] ticks is ground truth that probing pays —
     the estimate is set directly to 256 / (1 + n) (long quiet spans
     drive it towards 0) and the blind batch size resets;
   - a quiescent tick whose probe found nothing, and every non-quiescent
     tick, raise the estimate EWMA-style (d += (256 - d) / 8): the
     module is paying probes or quiescence checks for nothing;
   - once the estimate crosses [dense_threshold] on a non-quiescent tick
     the engine runs blind per-tick batches with no probes and no
     quiescence checks, doubling from [blind_init] up to [blind_max], so
     a long dense phase asymptotically pays ~zero skip-ahead overhead
     while a phase change is still noticed within [blind] ticks.

   While dense, a single quiescent tick only decays the estimate
   (d -= d/8) — one-tick gaps are common inside dense phases and probing
   them was the BENCH_5 regression. Two quiescent ticks in a row,
   however, usually announce a real idle span (a dense phase just
   ended): the second one pays a probe immediately instead of waiting
   ~15 decay ticks, so the sparse-workload win survives dense phases.
   The streak reset after each probe rate-limits re-probing when the
   module idles densely (something due every tick) to one probe per two
   quiescent ticks at worst, and the estimate saturates dense again
   after the first empty probe anyway.

   An advance that starts quiescent treats its start like a quiescent
   tick, so it may probe before its first step.

   Blind batches reuse [System.run] — exactly the per-tick reference
   path — and every skip is guarded by the quiescence proof, so traces,
   telemetry, metrics and campaign fingerprints are bit-identical in
   both modes. *)
let note_skip t ~skipped =
  if skipped > 0 then begin
    t.density <- scale / (1 + skipped);
    t.blind <- blind_init
  end
  else t.density <- t.density + ((scale - t.density) / 8)

(* A quiescent tick under the adaptive policy: probe when sparse, right
   after a blind batch, or on the second quiescent tick in a row; else
   only decay the estimate. Returns the ticks skipped. *)
let adaptive_quiet t ~remaining =
  let overshot = t.just_batched in
  t.just_batched <- false;
  if overshot || t.density < dense_threshold || t.streak >= 1 then begin
    t.streak <- 0;
    let skipped = probe t ~remaining in
    note_skip t ~skipped;
    sample_density t;
    skipped
  end
  else begin
    t.streak <- t.streak + 1;
    t.density <- t.density - (t.density / 8);
    0
  end

let advance_adaptive t ~ticks =
  let remaining = ref ticks in
  if (not (halted t)) && System.quiescent t.system then
    remaining := !remaining - adaptive_quiet t ~remaining:!remaining;
  while !remaining > 0 && not (halted t) do
    step_one t;
    decr remaining;
    t.stats.stepped <- t.stats.stepped + 1;
    if !remaining > 0 && not (halted t) then begin
      if System.quiescent t.system then
        remaining := !remaining - adaptive_quiet t ~remaining:!remaining
      else begin
        t.streak <- 0;
        t.just_batched <- false;
        t.density <- t.density + ((scale - t.density) / 8);
        if t.density >= dense_threshold then begin
          sample_density t;
          let n = Int.min !remaining t.blind in
          run_batch t ~ticks:n;
          remaining := !remaining - n;
          t.stats.stepped <- t.stats.stepped + n;
          if t.blind < blind_max then t.blind <- t.blind * 2;
          t.just_batched <- true
        end
      end
    end
  done

(* Advance the module by [ticks] clock ticks, observationally identically
   to [System.run ~ticks]: every interesting tick is executed through the
   per-tick path, and each provably-quiet span in between collapses into
   one O(1) batch clock update. A halted module freezes the clock in all
   modes, so the remaining budget is simply dropped. *)
let advance t ~ticks =
  t.proved <- -1;
  if ticks > 0 then
    match t.mode with
    | Per_tick ->
      run_batch t ~ticks;
      t.stats.stepped <- t.stats.stepped + ticks
    | Adaptive -> advance_adaptive t ~ticks

let run_mtfs t n =
  System.run_mtfs_with ~advance:(fun ticks -> advance t ~ticks) t.system n
