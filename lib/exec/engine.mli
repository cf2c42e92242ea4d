(** The skip-ahead executive: advances a module to the next interesting
    tick in O(1) across quiet spans, bit-identically to per-tick
    execution.

    The per-tick executive pays one {!Air.System.step} per clock tick even
    when nothing can happen — no schedulable process, or only a running
    heir in the middle of a [Compute] action, and no pending wake or
    deadline, no window edge. [Engine] executes every interesting tick
    through the unchanged per-tick path and collapses each provably-quiet
    span in between into a single batch update ({!Air.System.skip}), so
    workloads advance at the cost of their event density rather than
    their horizon. In {!Adaptive} mode an advance probes before its
    first step when the module is already quiescent, so a short advance
    (a fleet window, a fault-injection gap) may step no tick at all.

    Probing after every executed tick has a cost: on a {e dense} workload
    (an event due nearly every tick — e.g. a script that ends a [Compute]
    action and runs further actions on every tick) the probe of
    {!Clock.next_interesting} buys nothing and is pure overhead. So the
    default {!Adaptive} mode tracks an EWMA estimate of interesting-tick
    density, probes only while the workload looks sparse, and runs blind
    per-tick batches (doubling up to a cap) while it is dense — so dense
    workloads run at within-noise of plain per-tick execution while
    sparse workloads keep the full skip-ahead win. Event traces,
    telemetry frames, metrics and campaign verdicts are identical in both
    modes (the property tests in [test/test_exec.ml] pin this). *)

(** Execution strategy. *)
type mode =
  | Per_tick  (** Plain {!Air.System.run} — the reference behaviour. *)
  | Adaptive
      (** Density-gated skipping: probe while sparse, blind per-tick
          batches while dense. Never slower than [Per_tick] by more than
          noise, never misses a skippable span by more than the current
          blind batch. The default. *)

type stats = {
  mutable stepped : int;  (** Ticks executed through the per-tick path. *)
  mutable skipped : int;  (** Ticks collapsed into batch clock updates. *)
  mutable probes : int;
      (** [Clock.next_interesting] evaluations — the skip-ahead overhead
          measure the adaptive mode minimizes on dense workloads. *)
}

type t

val create :
  ?profiler:Profiler.t ->
  ?on_tick:(unit -> unit) ->
  ?mode:mode ->
  Air.System.t ->
  t
(** [mode] selects the strategy (default {!Adaptive}). [profiler], when
    given, receives wall-clock and tick attribution for every engine
    operation ({!Profiler}); without one the engine takes the original
    uninstrumented paths and reads no clocks. [on_tick] is fired after
    {e every} executed tick — including inside blind batches — and never
    across a skipped span (skips are quiescence-proved, so nothing the
    observer could see happens in them); the fleet engine hangs its
    per-module gateway pump here. Since an advance may skip even its
    first tick, work due at a given instant is done explicitly after
    advancing to it (the fleet's forced drains). *)

val system : t -> Air.System.t
val mode : t -> mode
val stats : t -> stats
val profiler : t -> Profiler.t option

val simulated : t -> int
(** Total simulated ticks advanced so far ([stepped + skipped]). *)

val advance : t -> ticks:int -> unit
(** Advance simulated time by [ticks], observationally identically to
    [System.run ~ticks]. A halted module freezes the clock, as per-tick
    execution does. *)

val next_proved : t -> Air_sim.Time.t
(** The probe report. A probe asks {!Clock.next_interesting} for the
    module's next interesting tick with no horizon and clips the skip to
    the advance's remaining budget, so when an advance ends on that skip
    the probe has proved the tick at which the module next does more than
    let time pass; [next_proved] returns it ({!Air_sim.Time.infinity} when
    nothing is due). It returns [-1] when the last {!advance} did not end
    on a probe's skip: the report is cleared at the start of every
    {!advance} and on every stepped tick, blind batches and [Per_tick]
    advances included. The report describes the module as the advance
    left it: anything done to the module since (a remote delivery, an
    injected fault, a started process) voids it, and only the caller can
    know that. The fleet engine reads it instead of probing again after a
    module's window. *)

val run_mtfs : t -> int -> unit
(** Advance by whole major time frames of the schedule current at each
    boundary: {!Air.System.run_mtfs_with} over {!advance}. *)
