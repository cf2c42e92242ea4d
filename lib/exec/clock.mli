(** Next-event computation for the skip-ahead executive.

    The per-tick executive ({!Air.System.step}) only ever reacts at a
    bounded set of future instants; [Clock] computes the earliest of them
    so {!Engine} can advance the module across the quiet span in between
    with one O(1) batch update ({!Air.System.skip}) instead of one call
    per tick. Whether the span may be skipped at all is
    {!Air.System.quiescent}'s proof; a span may hold idle ticks or the
    pure compute ticks of running heirs. *)

open Air_sim

val next_interesting : Air.System.t -> Time.t
(** The earliest future tick at which per-tick execution could do anything
    beyond advancing the clock and the running heirs' compute progress:
    the minimum of the lanes' next preemption
    instant (context switches, window edges, MTF boundaries — which carry
    telemetry frame closes, mode-based schedule switches and change
    actions) and the active partitions' pending events (blocked-process
    wake/timeout/release instants, the tick after the earliest PAL
    deadline, the tick that ends a running heir's [Compute] action or
    whose charge would cross a contention threshold);
    {!Air_sim.Time.infinity} when nothing is due. Callers clip the skip to
    their own budget. *)
