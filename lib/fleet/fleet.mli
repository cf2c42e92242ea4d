(** Constellation-scale parallel discrete-event execution.

    A [Fleet.t] advances the modules of an {!Air.Cluster} in parallel
    across OCaml domains with a {e conservative} (Chandy–Misra–Bryant
    style) protocol, bit-identically to the sequential {!Air.Cluster.run}:

    {ul
    {- {b Lookahead.} The cluster's minimum link latency [L]
       ({!Air.Cluster.lookahead}) bounds how early a message can arrive:
       a send made in tick [k] drains at [k + 1] and arrives no earlier
       than [k + 1 + L].}
    {- {b Windows.} A window runs from a barrier [T] to
       [min (end of run) (N + L)], where [N] is the earliest tick at which
       anything could send: the smallest of each module's next tick of
       work (its skip-ahead probe when quiescent, its next tick when not,
       never once halted), the earliest in-flight arrival, and [T] when a
       gateway holds messages. No traffic produced inside the window can
       land inside it, so every delivery is already known at [T].}
    {- {b Private advance.} Only modules with an arrival, an occupied
       gateway or work inside the window enter it; the others lag and
       catch up with one skip when they next enter one. Each advances
       through its own {!Air_exec.Engine} (adaptive skip-ahead),
       segmented at its arrival instants; a per-tick hook pumps its
       gateways into the shard's mailbox, tagged with the sequential
       drain position [(clock, link, fifo)].}
    {- {b Next work from the final probe.} After a module's window its
       next tick of work is the probe report of its last advance
       ({!Air_exec.Engine.next_proved}): when that advance ended on a
       skip, the engine's probe already proved the module's next
       interesting tick, so the fleet does not probe again. The report is
       ignored — and a fresh probe taken — when the advance did not end
       on a skip, or when a delivery came after it: an arrival exactly at
       the window's end is delivered with no advance after it and may wake
       a receiver the report knows nothing of.}
    {- {b Deterministic merge.} At the barrier the coordinator replays
       all buffered sends through the shared bus in that exact sequential
       order, reproducing bus occupancy, arrival instants and
       serialization order — transfers are totally ordered by
       [(arrival, seq)] — so traces, telemetry, counters, fingerprints
       and fault-campaign verdicts are independent of the domain count.}}

    The protocol needs no explicit null messages: the barrier itself is
    the null message. Windows in which a shard executes nothing and moves
    no message are counted as {e null windows} in
    {!Air_obs.Fleet_stats}. *)

open Air

type t

val create : ?domains:int -> Cluster.t -> t
(** Wrap a cluster (fresh or already partially run — the fleet continues
    from its clock). [domains] (default 1) is capped at the module count;
    [domains - 1] worker domains are spawned lazily on the first {!run}.
    Raises [Invalid_argument] if some link has zero latency (no
    conservative lookahead window exists) or [domains < 1]. The cluster
    must not be stepped directly between fleet runs (fault injection and
    module inspection are fine — every {!run} return is a barrier). *)

val run : t -> ticks:int -> unit
(** Advance the whole fleet by [ticks] global clock ticks — bit-identical
    to [Cluster.run ~ticks] on the same cluster. Between barriers,
    modules with nothing to do lag behind the cluster clock; every module
    is brought up to date before [run] returns, so every return is a
    barrier: clock, modules, bus and counters all agree with the
    sequential run at the same instant. Injecting faults into modules or
    the bus between runs is safe: each run recomputes every module's next
    tick of work before its first window. *)

val close : t -> unit
(** Join the worker domains. Idempotent; the fleet cannot run again. *)

val domains : t -> int

val stats : t -> Air_obs.Fleet_stats.t
(** Per-shard progress / null-window / blocked-time counters and the
    fleet summary frame. Read between runs (barriers), not concurrently
    with one. *)

val fingerprint_text : Cluster.t -> string
(** The un-hashed form of {!fingerprint}, one observable per line — diff
    two of these to localize a divergence. *)

val fingerprint : Cluster.t -> string
(** Digest of the full observable state of a cluster — clock, bus
    occupancy and in-flight transfers, and every module's clock, halt
    reason, HM counters, partition modes, event counts, retained trace,
    telemetry frames and causal flow records. A fleet run and a
    sequential run of equivalent clusters yield equal fingerprints at
    equal instants, for any domain count. *)

(** {1 Fault campaigns over fleets} *)

val execute_campaign :
  ?domains:int ->
  make:(unit -> Cluster.t) ->
  Air_faults.Campaign.spec ->
  Air_faults.Engine.run
(** {!Air_faults.Engine.execute} with fleet targets built from [make]
    (called once for the campaign and once for the fault-free baseline),
    observing module 0;
    the fleets are closed on every exit, also when the campaign raises.
    Outcomes and fingerprint are
    bit-identical to the sequential cluster campaign for any domain
    count. *)
