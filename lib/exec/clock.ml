open Air_sim
open Air

(* The next *interesting* tick of a module: the earliest future instant at
   which per-tick execution could do anything beyond advancing the clock
   and the running heirs' compute progress (which [System.skip] applies in
   one step). Everything the per-tick executive reacts to is covered by two
   sources:

   - the lanes' preemption tables ({!Air.Pmk_mc.next_preemption_tick}): the
     next context switch, MTF boundary (telemetry frame close + pending
     mode-based schedule switch + change actions) or window edge — all
     preemption-point entries, and entry 0 coincides with the frame
     boundary;
   - the active partitions' own pending events
     ({!Air.System.next_partition_event}): a blocked process' wake,
     timeout or periodic release, the tick after the earliest PAL
     deadline, and for a heir that only computes the tick that ends its
     [Compute] action or whose charge would cross a contention
     threshold.

   Inactive partitions need no source of their own: they are not driven
   per-tick, and their next involvement is their next dispatch — a
   preemption-table entry. A caller's own horizon (end of run, next fault
   injection) is the caller's to apply: it clips the span, and the answer
   stays the module's own. *)

let next_interesting system =
  Time.min
    (Pmk_mc.next_preemption_tick (System.lane system))
    (System.next_partition_event system)
