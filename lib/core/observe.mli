(** One observation of a run: the state that decides whether two runs of
    one configuration are the same run — per-tick vs skip-ahead, 1–4
    lanes, a sequential cluster vs a fleet, two executions of one fault
    campaign. Every such check compares two observations, and every
    fingerprint ([Fleet.fingerprint], a campaign's) is the {!digest} of
    one.

    An observation is a list of named sections, each the [Marshal] image
    (without sharing) of closure-free data read from a module, so equal
    state gives equal bytes and nothing is rendered on the way: no
    [Format], no JSON. A module's sections, in this order — state before
    the event record, so a state change that also emits an event is named
    by its state section:
    - [clock]: the clock and the halt reason;
    - [partitions]: each partition's mode and pending clock-jitter ticks;
    - [schedule]: per lane, the current and next schedule, the last
      switch, the active partition and the tick count (Algorithms 1–2);
    - [processes]: per process, the status ⟨D', p', St⟩ of eq. (12)
      ({!Air_pos.Kernel.status}), the activation count and the script
      position (action index and compute ticks left);
    - [intra]: per partition, {!Air_pos.Intra.observe};
    - [ports]: every port's buffered messages
      ({!Air_ipc.Router.contents});
    - [contention]: per partition, demand, throttled ticks, stall debt,
      pressure, blown flag and budget; empty without a contention model;
    - [hm]: the Health Monitor's error count;
    - [events]: the per-kind event totals;
    - [trace]: total, retained count and {!Air_sim.Trace.digest};
    - [telemetry]: the closed frames;
    - [flows]: the retained causal records;
    - [spans]: the closed and the open flight-recorder spans;
    - [metrics]: the metrics snapshot ({!System.metrics_snapshot}). *)

type t = (string * string) list
(** [(name, image)] sections, in the order above. *)

val system : System.t -> t

val cluster : Cluster.t -> t
(** A [bus] section (the cluster clock, the {!Cluster.stats} counters and
    every in-flight transfer), then each module's sections, named
    [m<i>.<section>] for module [i]. *)

val to_text : t -> string
(** One line per section: its name and the hex MD5 of its image. *)

val digest : t -> string
(** The hex MD5 of every section's name and image, in order (one pass;
    images are self-delimiting). *)

val first_difference : t -> t -> string option
(** The name of the first section whose images differ, or that only one
    side has; [None] when the observations are equal. *)
