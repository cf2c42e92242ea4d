(** Multi-module co-simulation over a communication infrastructure.

    The paper's interpartition communication is location-agnostic: "for
    physically separated partitions, this implies data transmission through
    a communication infrastructure" (Sect. 2.1). A [Cluster.t] steps several
    AIR modules in lockstep on a shared clock and carries messages between
    them over a simulated bus with configurable latency and bandwidth —
    the shape of an onboard SpaceWire or MIL-STD-1553 link.

    Wiring: a remote link names a queuing {e destination} port in the
    source module (the outbound gateway the application sends into through
    an ordinary local channel) and a destination port in the target module.
    Each tick the cluster drains every gateway, serializes the messages on
    the bus (latency + size/bandwidth, one transfer at a time), and injects
    arrivals into the target module's port, waking blocked receivers. *)

open Air_sim

type link = {
  from_module : int;
  from_port : string;   (** Queuing destination port acting as gateway. *)
  to_module : int;
  to_port : string;     (** Destination port in the target module. *)
  link_latency : Time.t option;
      (** Per-link propagation delay; [None] inherits the bus default.
          The minimum across links is {!lookahead}. *)
}

val link :
  ?latency:Time.t ->
  from_module:int ->
  from_port:string ->
  to_module:int ->
  to_port:string ->
  unit ->
  link
(** Smart constructor — the spelled-out record with [link_latency]
    defaulting to [None] (bus latency). *)

type bus = {
  latency : Time.t;        (** Propagation delay, ticks. *)
  bytes_per_tick : int;    (** Bandwidth; transfers serialize. *)
}

val default_bus : bus
(** 4 ticks latency, 16 bytes/tick. *)

type t

val create : ?bus:bus -> links:link list -> System.t list -> t
(** Raises [Invalid_argument] on module indices out of range, an empty
    module list, a negative per-link latency, two links draining the same
    gateway port, a gateway that is not a queuing destination port of its
    source module, or an ingress that is not a destination port of its
    target module. Each link's two ports are resolved to router IDs here,
    once ({!Air_ipc.Router.resolve}). Modules configured with a causal
    flow tracker get their tracker homed to their cluster index, so
    correlation ids are unique cluster-wide. *)

val step : t -> unit
(** One global clock tick: every module steps, gateways drain onto the
    bus, due arrivals are delivered. *)

val run : t -> ticks:int -> unit

val now : t -> Time.t

val systems : t -> System.t array

val links : t -> link array
(** The links in drain order (a copy; index = the [link] argument of
    {!send_via}). *)

val lookahead : t -> Time.t
(** Minimum effective latency across links — a message drained at clock
    [c] can arrive no earlier than [c + lookahead t], so modules may
    safely advance that far between communication barriers.
    {!Time.infinity} without links. *)

val flow_entries : t -> Air_obs.Causal.entry list
(** Every module's retained causal hop records, concatenated in module
    order — cross-module flows appear as a [Send] (+ [Forward]) in the
    origin module and a [Receive] in the target, sharing the id. *)

val chrome_trace : t -> string
(** The whole cluster as one Chrome trace: per-module tracks shifted into
    distinct process groups (named ["m<i>:<name>"]), event lanes prefixed
    by module, and all causal records merged into one flow-event set —
    the viewer draws send→receive arrows across module boundaries because
    both ends carry the same correlation id. *)

type stats = {
  transferred : int;       (** Messages delivered to target ports. *)
  dropped : int;
      (** Refused by the target port: larger than its maximum message
          size. *)
  in_flight : int;
  bus_busy_until : Time.t; (** Bus occupancy horizon. *)
}

val stats : t -> stats

(** {1 Fleet engine primitives}

    Low-level hooks for {!Air_fleet.Fleet}, the parallel windowed engine:
    it advances modules privately between barriers and then replays the
    buffered gateway drains through the cluster in the exact sequential
    order, so arrival instants, serialization [seq]s and counters match a
    per-tick {!run} bit for bit. Mixing these with {!step} outside that
    protocol will desynchronize the cluster clock from its modules. *)

type transfer = {
  arrival : Time.t;
  seq : int;           (** Bus serialization order; heap ties break on it. *)
  target_module : int;
  target_port : Air_ipc.Router.port;
      (** The link's ingress, as an ID of the target module's router. *)
  payload : bytes;
  cid : Air_obs.Causal.id;
}

val gateways : t -> Air_ipc.Router.port array
(** By link index (as {!links}): the gateway's ID in its source module's
    router, resolved by {!create} (a copy). *)

val set_clock : t -> Time.t -> unit
(** Reposition the cluster clock at a window barrier (the modules were
    advanced out-of-band). *)

val send_via : t -> at:Time.t -> link:int -> cid:Air_obs.Causal.id -> bytes -> unit
(** Replay one gateway drain that happened at instant [at] on the
    [link]-th link (index into {!links}): serializes onto the bus exactly
    as the drain inside {!step} would have — same occupancy, arrival and
    [seq] — provided replays come in the sequential drain order
    [(at, link, FIFO position)]. *)

val take_due : t -> upto:Time.t -> transfer list
(** Pop every in-flight transfer with [arrival <= upto], in delivery
    order [(arrival, seq)] — the window's incoming traffic, for the
    caller to deliver at the right module-local instants. *)

val next_arrival : t -> Time.t
(** Arrival instant of the earliest in-flight transfer — the first
    instant the bus can wake a module — or {!Time.infinity} when nothing
    is in flight. O(1). *)

val account : t -> transferred:int -> dropped:int -> unit
(** Merge externally-accumulated delivery counters (per-shard counts) into
    the cluster's totals. *)

val in_flight_transfers : t -> transfer list
(** Snapshot of the bus in delivery order — for state fingerprints.
    O(n log n), non-destructive. *)

(** {1 Fault injection on inter-module links}

    Hooks for the fault-injection campaign engine ([Faults]): perturb the
    earliest in-flight bus transfer. All operate between serialization and
    delivery — the window in which a real link fault would strike. *)

type bus_fault =
  | Bus_drop  (** Transfer lost on the medium (counted in [dropped]). *)
  | Bus_duplicate  (** Delivered twice at the same arrival instant. *)
  | Bus_delay of Time.t  (** Arrival postponed by the given ticks. *)
  | Bus_corrupt of { byte : int }
      (** All bits of payload byte [byte mod length] inverted. *)
  | Bus_reorder
      (** The two earliest transfers swap arrival instants (absorbed when
          fewer than two are in flight). *)

val inject_bus_fault : t -> bus_fault -> bool
(** Apply the fault to the transfer with the earliest arrival time; [false]
    when nothing is in flight (the fault is a no-op). Stamped transfers get
    a [Perturb] record in the target module's flow tracker. *)

val last_perturbed : t -> Air_obs.Causal.id list
(** Correlation ids of the flows touched by the most recent
    {!inject_bus_fault} call ([[]] when it was a no-op or the transfers
    were unstamped) — campaign reports annotate fault outcomes with
    them. *)
