(** Next-event computation for the skip-ahead executive.

    The per-tick executive ({!Air.System.step}) only ever reacts at a
    bounded set of future instants; [Clock] computes the earliest of them
    so {!Engine} can advance the module across the quiet span in between
    with one O(1) batch update ({!Air.System.skip}) instead of one call
    per tick. Whether the span may be skipped at all is
    {!Air.System.quiescent}'s proof; a span may hold idle ticks or the
    pure compute ticks of running heirs. *)

open Air_sim

val next_interesting : Air.System.t -> until:Time.t -> Time.t
(** The earliest future tick at which per-tick execution could do anything
    beyond advancing the clock and the running heirs' compute progress:
    the minimum of the lanes' next preemption
    instant (context switches, window edges, MTF boundaries — which carry
    telemetry frame closes, mode-based schedule switches and change
    actions), the active partitions' pending events (blocked-process
    wake/timeout/release instants, the tick after the earliest PAL
    deadline, the tick that ends a running heir's [Compute] action or
    whose charge would cross a contention threshold) and the caller's
    horizon [until] (end of run, next fault injection, next watch
    refresh). *)

val horizon : now:Time.t -> remaining:int -> Time.t
(** The exclusive skip bound [now + remaining + 1], saturating at
    {!Air_sim.Time.infinity} instead of overflowing when the sum would
    exceed [max_int] (e.g. a watch running with an effectively unbounded
    budget near the end of the representable range). *)
