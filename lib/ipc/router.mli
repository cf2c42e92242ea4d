(** Runtime message transport between partitions.

    The AIR PMK implements interpartition communication for co-located
    partitions as memory-to-memory copies that do not violate spatial
    separation (paper Sect. 2.1): a write through a source port is fanned
    out, by copy, into the buffers of every destination port of the channel.
    The router owns those buffers; partitions only ever see copies of their
    own messages.

    {2 Port IDs}

    The router addresses every port by its ID: the port's position in the
    network's declaration order, which is also the port field of every
    causal id stamped here. Channels are routed as arrays of destination
    IDs. A name is resolved once ({!resolve}), the way APEX's
    [CREATE_SAMPLING_PORT] and [CREATE_QUEUING_PORT] return a [PORT_ID]
    that every later write, read, send and receive takes: the module
    resolves each port a script action names when it boots, and a cluster
    resolves each link's gateway and ingress when it is created. Events and
    errors still name ports, through {!port_name}.

    Four name-keyed services remain, each a {!resolve} followed by its
    ID-keyed form: {!write_sampling}, {!read_sampling}, {!send_queuing} and
    {!receive_queuing}, for callers that hold names and run off the tick
    path (benchmarks, tests). The fault-injection perturbations are
    name-keyed too: a campaign names the port it strikes. *)

open Air_sim
open Air_model.Ident

type t

type port = int
(** A port ID. *)

type error =
  | Unknown_port of Port_name.t
      (** The port as the caller named it: its name, or [#ID] for an ID no
          port has. *)
  | Not_owner of { port : Port_name.t; caller : Partition_id.t }
      (** Port belongs to a different partition. *)
  | Wrong_direction of Port_name.t
  | Wrong_mode of Port_name.t  (** Sampling operation on a queuing port, etc. *)
  | Message_too_large of { port : Port_name.t; size : int; max : int }
  | Empty_message

val pp_error : Format.formatter -> error -> unit

val create :
  ?metrics:Air_obs.Metrics.t ->
  ?recorder:Air_obs.Span.t ->
  ?causal:Air_obs.Causal.t ->
  Port.network ->
  t
(** Raises [Invalid_argument] when {!Port.validate} reports diagnostics.
    [metrics] receives the [ipc.*] series (message/byte/overflow/stale
    counters plus the [ipc.delivery_latency] histogram); a private registry
    is used when omitted. [recorder], when given, receives delivery
    instants: [ipc.write-sampling] / [ipc.send-queuing] on the sending
    partition's track and [ipc.inject] on the module track, each carrying
    the port name as detail. [causal], when given, stamps every
    originating write with a correlation id (origin partition + the
    port's declaration index + monotone sequence) that travels with the
    buffered payload, and records send/receive/forward/perturbation hops
    into the tracker — all allocation-free. *)

val resolve : t -> Port_name.t -> port
(** The ID of the named port, or [-1] when the network declares no port of
    that name. Every service fails on [-1] as on an unknown name:
    [Unknown_port], [Inject_bad_port], [None] or [0]. *)

val port_name : t -> port -> Port_name.t
(** The name of port [port], or ["#ID"] for an ID no port has. *)

val port_config : t -> port -> Port.config
(** The configuration of port [port]. Raises [Invalid_argument] for an ID
    no port has. *)

val port_names : t -> (port * string) list
(** ID → port name, sorted by ID — resolves the port field of a causal id
    back to its name. *)

val set_delivery_observer : t -> (latency:int -> unit) -> unit
(** Install the observer invoked with each queuing delivery latency sample
    (see {!receive_queuing}); the telemetry layer uses this to feed its
    per-frame latency percentiles without the router depending on it. *)

(** {1 Sampling mode} *)

type validity = Valid | Invalid

val write_sampling_id :
  t ->
  caller:Partition_id.t ->
  port:port ->
  now:Time.t ->
  bytes ->
  (unit, error) result
(** Copies the message into every destination slot of the port's channel
    (no channel attached: the write succeeds and the message goes nowhere,
    as with an unconnected physical link). *)

val read_sampling_id :
  t ->
  caller:Partition_id.t ->
  port:port ->
  now:Time.t ->
  (bytes * validity, error) result
(** Non-destructive read of the destination slot. An empty slot reads as an
    empty message with [Invalid] validity; a stale message (older than the
    port's refresh period) reads [Invalid]. The returned bytes are a fresh
    copy. *)

val write_sampling :
  t ->
  caller:Partition_id.t ->
  port:Port_name.t ->
  now:Time.t ->
  bytes ->
  (unit, error) result
(** {!write_sampling_id} on the named port. *)

val read_sampling :
  t ->
  caller:Partition_id.t ->
  port:Port_name.t ->
  now:Time.t ->
  (bytes * validity, error) result
(** {!read_sampling_id} on the named port. *)

(** {1 Queuing mode} *)

type send_outcome = {
  delivered : port list;
  overflowed : port list;
      (** Destinations whose queue was full; the message was discarded
          there and the overflow is reported to health monitoring. *)
}

val send_queuing_id :
  t ->
  caller:Partition_id.t ->
  port:port ->
  now:Time.t ->
  bytes ->
  (send_outcome, error) result

val receive_queuing_id :
  t ->
  caller:Partition_id.t ->
  port:port ->
  now:Time.t ->
  (bytes option, error) result
(** [Ok None] when the queue is empty (the APEX layer maps it to
    NOT_AVAILABLE or blocks the caller). FIFO order. The popped message
    contributes a delivery-latency sample ([now - enqueue time]) to the
    [ipc.delivery_latency] histogram and the {!set_delivery_observer}
    observer, and closes the message's causal flow with a [Receive]
    record. *)

val send_queuing :
  t ->
  caller:Partition_id.t ->
  port:Port_name.t ->
  now:Time.t ->
  bytes ->
  (send_outcome, error) result
(** {!send_queuing_id} on the named port. *)

val receive_queuing :
  t ->
  caller:Partition_id.t ->
  port:Port_name.t ->
  now:Time.t ->
  (bytes option, error) result
(** {!receive_queuing_id} on the named port. *)

val drain :
  t -> port:port -> now:Time.t -> (bytes * Air_obs.Causal.id) option
(** Gateway pop towards a cluster link: same pop, metric and latency
    accounting as [receive_queuing_id ~now] on the port's owner, but the
    causal record is a [Forward] (the message continues to another
    module) and the buffered correlation id is returned so the link
    transfer can carry it. [None] on empty, unknown or non-queuing
    ports. *)

val pending : t -> port:port -> int
(** Messages currently queued at a destination port (0 for unknown,
    sampling and source ports). *)

val contents : t -> port -> (bytes * Time.t * Air_obs.Causal.id) list
(** What the port with this ID buffers, oldest first: each payload with
    its write instant and correlation id ([[]] for a source port). The
    payloads are the buffer's own bytes, not copies: read, never write
    them. For state observations ({!Air.Observe}). *)

(** {1 Remote delivery}

    For physically separated partitions, interpartition communication
    "implies data transmission through a communication infrastructure"
    (paper Sect. 2.1). The PMK-side entry point: a message arriving from
    the infrastructure is injected directly into a local destination
    port's buffer, as if a local channel had delivered it. *)

type inject_outcome = Injected | Inject_overflow | Inject_bad_port

val inject :
  ?cid:Air_obs.Causal.id ->
  t ->
  port:port ->
  now:Time.t ->
  bytes ->
  inject_outcome
(** Write into a destination port: overwrite for sampling, enqueue for
    queuing (bounded — [Inject_overflow] on a full queue). Size limits are
    enforced as for local traffic: [Inject_bad_port] covers oversized or
    empty messages as well as unknown and source ports. [cid] (default
    {!Air_obs.Causal.none}) is the correlation id the message carried on
    the wire; it is stored with the payload so the eventual receive closes
    the originating flow. *)

(** {1 Fault-injection perturbations}

    Hooks for the fault-injection campaign engine ([Faults]): each models a
    communication fault striking a channel after the send completed and
    before the receiver looks, so they all act on destination buffers. They
    bypass ownership/direction checks on purpose — a faulty bus does not
    ask permission — but never violate spatial separation: payload copies
    stay inside the router. *)

type perturb_outcome =
  | Perturbed  (** The fault was applied to an in-transit message. *)
  | No_message  (** Nothing in transit to perturb; the fault was a no-op. *)
  | Perturb_bad_port
      (** Unknown port, a source end, or a mode that cannot express the
          fault (e.g. reorder on a sampling slot). *)

val drop_head : t -> port:Port_name.t -> now:Time.t -> perturb_outcome
(** Message loss: clear a sampling slot / pop the oldest queued message.
    [now] (here and below) timestamps the [Perturb] record written to the
    causal tracker for the struck message's id. *)

val duplicate_head : t -> port:Port_name.t -> now:Time.t -> perturb_outcome
(** Message duplication: re-enqueue a copy of the queue head at the tail
    (overflowing queues discard the duplicate, counted as an overflow).
    The copy keeps the original's correlation id. Sampling slots absorb
    duplicates by construction. *)

val corrupt_head :
  t -> port:Port_name.t -> byte:int -> now:Time.t -> perturb_outcome
(** Payload corruption: invert all bits of byte [byte mod length] of the
    slot content / queue head. *)

val reorder_head : t -> port:Port_name.t -> now:Time.t -> perturb_outcome
(** Reordering: rotate the queue head to the tail ([No_message] unless at
    least two messages are queued; meaningless for sampling ports). *)

val steal_head :
  t -> port:Port_name.t -> now:Time.t -> (bytes * Air_obs.Causal.id) option
(** Remove and return the slot content / queue head without any accounting;
    the campaign engine uses this to model delay faults by re-injecting the
    stolen payload later through {!inject} (passing the returned id as
    [?cid] keeps the flow intact across the delay). *)

(** {1 Accounting} *)

type stats = {
  messages_sent : int;
  messages_received : int;
  bytes_copied : int;
  overflows : int;
}

val stats : t -> stats
