(** Causal correlation ids for cross-module message flows.

    Every IPC message (sampling write, queuing send) and cluster-link
    transfer is stamped at its origin with a compact correlation id packing
    the origin module, partition and port indices plus a monotone sequence
    number into one OCaml [int] — allocation-free on the hot path. The id
    travels with the message through router buffers, gateway drains and bus
    transfers, and every hop appends a fixed-size record to a bounded
    ring, so a Chrome trace can draw flow arrows between the send and the
    final receive even when they happen in different modules, and
    {!Air_vitral.Flows} can report end-to-end latency per flow.

    Bit layout (63-bit OCaml int, low to high):
    - bits 0–31: sequence number (per-tracker monotone counter, wraps);
    - bits 32–41: origin port index (10 bits);
    - bits 42–49: origin partition index (8 bits);
    - bits 50–57: origin module index (8 bits);
    - bit 58: validity flag, so no packed id collides with {!none}.

    Recording is O(1), float-free and allocation-free once the ring has
    reached its bound. The ring is a {!Ring} of flat int columns, one slot
    per hop: kind code (0 send, 1 receive, 2 forward, 3 + perturbation),
    id, time and track. No ring holds boxed records: a queue of entries
    would link each new cell from the previous one, promoting every hop
    recorded between two minor collections, and a ring of preallocated
    mutable cells costs [capacity] boxed cells at creation whether or not
    a hop ever arrives. The columns start empty and double up to
    [capacity], so creating a tracker allocates no column. An {!entry} is
    built only when {!entries} reads the ring. Like {!Span}, retention is
    bounded — the tracker keeps the most recent [capacity] records while
    {!total} keeps counting, and {!dropped} exposes the evicted count. *)

type id = int
(** A packed correlation id, or {!none}. *)

val none : id
(** The absent id (0). Messages that predate the tracker carry it. *)

val pack : module_id:int -> partition:int -> port:int -> seq:int -> id
(** Pack the four fields (each masked to its bit width) into a valid id.
    Total function: out-of-range inputs are truncated, never rejected. *)

val is_some : id -> bool
val module_of : id -> int
val partition_of : id -> int
val port_of : id -> int
val seq_of : id -> int

val flow_of : id -> id
(** The flow key: the id with its sequence bits cleared — identifies the
    (module, partition, port) origin shared by every message of a flow. *)

val to_string : id -> string
(** ["m0.p1.q2#42"]; ["-"] for {!none}. *)

val flow_to_string : id -> string
(** The flow key rendered without the sequence (["m0.p1.q2"]). *)

(** What a fault did to a stamped message in flight. *)
type perturbation =
  | Drop
  | Duplicate
  | Corrupt
  | Reorder
  | Delay
  | Bus_drop
  | Bus_duplicate
  | Bus_corrupt
  | Bus_reorder
  | Bus_delay

val perturbation_label : perturbation -> string

(** One hop in a message's life. *)
type kind =
  | Send  (** Stamped at the origin port write. *)
  | Receive  (** Consumed by the destination partition. *)
  | Forward  (** Pulled off a gateway port towards a cluster link. *)
  | Perturb of perturbation  (** Touched by an injected fault. *)

type entry = {
  kind : kind;
  id : id;
  time : int;
  track : int;  (** Partition index; [-1] for module-level hops. *)
}

type t

val create : ?capacity:int -> ?module_id:int -> unit -> t
(** An empty tracker keeping the newest [capacity] hop records (default
    16384, must be positive); the ring's columns grow to [capacity] as
    hops arrive. [module_id] (default 0) seeds the origin-module field of
    every id this tracker stamps. *)

val set_module_id : t -> int -> unit
(** Re-home the tracker (cluster construction assigns each module its
    index). Only affects ids stamped afterwards. *)

val module_id : t -> int

val stamp : t -> now:int -> partition:int -> port:int -> id
(** Mint the next id for a message originated by [partition] on [port],
    recording a [Send] entry. Allocation-free. *)

val receive : t -> now:int -> track:int -> id -> unit
(** Record the final consumption of a stamped message ([Receive]); no-op
    on {!none}. Allocation-free. *)

val forward : t -> now:int -> id -> unit
(** Record a gateway hop ([Forward], module track); no-op on {!none}. *)

val perturb : t -> now:int -> what:perturbation -> id -> unit
(** Record a fault touching a stamped in-flight message; no-op on
    {!none}. *)

val last_perturbed : t -> id
(** The id of the most recent [Perturb] entry still retained; {!none}
    when no perturbation was recorded. *)

val entries : t -> entry list
(** Retained records, oldest first (copied out; not the hot path). *)

val length : t -> int
val total : t -> int

val dropped : t -> int
(** Records evicted by bounded retention ([total - length]). *)

val capacity : t -> int
