open Air_sim
open Air

(* The next *interesting* tick of a module: the earliest future instant at
   which per-tick execution could do anything beyond advancing the clock
   and the running heirs' compute progress (which [System.skip] applies in
   one step). Everything the per-tick executive reacts to is covered by three
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
     threshold;
   - the caller's horizon [until] (end of run, next fault injection, next
     watch refresh), which bounds the span externally.

   Inactive partitions need no source of their own: they are not driven
   per-tick, and their next involvement is their next dispatch — a
   preemption-table entry. *)

let next_interesting system ~until =
  let lane_next = Pmk_mc.next_preemption_tick (System.lane system) in
  Time.min until (Time.min lane_next (System.next_partition_event system))

(* Exclusive upper bound on the span a caller with [remaining] budget may
   skip: one past the last budgeted tick. Saturates at {!Time.infinity}
   instead of wrapping when [now + remaining] approaches [max_int] — with
   [Time.infinity = max_int], the naive [now + remaining + 1] overflows to
   a negative bound and would stall (or corrupt) the skip computation. *)
let horizon ~now ~remaining =
  if remaining >= Time.infinity - now then Time.infinity
  else now + remaining + 1
