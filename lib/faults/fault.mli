(** Fault taxonomy of the injection campaign engine.

    The paper's dependability claim is containment: TSP must confine
    temporal and spatial faults to the offending partition while the Health
    Monitor applies the configured recovery action (Sect. 2.4, 5). Each
    constructor below models one way a partition, the platform clock, the
    memory system or the communication infrastructure can misbehave; the
    campaign engine ([Engine]) knows how to drive each of them through the
    corresponding [Air.System] / [Ipc.Router] / [Air.Cluster] hook, and the
    containment oracle ([Oracle]) knows which parts of the module each is
    allowed to disturb ({!scope}). *)

open Air_model

(** Communication faults, applicable to an interpartition channel
    ({!Port_fault}) or an inter-module bus link ({!Link_fault}). *)
type comm_fault =
  | Msg_loss
  | Msg_duplicate
  | Msg_corrupt of { byte : int }
      (** All bits of payload byte [byte mod length] inverted. *)
  | Msg_delay of { ticks : int }
  | Msg_reorder

type t =
  (* Temporal faults *)
  | Runaway_start of { partition : int; process : string }
      (** Start a (typically non-autostarted, overrunning) process — the
          paper's prototype fault (Sect. 6). *)
  | Process_stop of { partition : int; process : string }
      (** Stop a process by name: a crashed or operator-killed task. *)
  | Partition_restart of { partition : int; mode : Partition.mode }
      (** Force [Cold_start] / [Warm_start] / [Idle] ([Normal] invalid). *)
  | Schedule_request of { schedule : int }
      (** A mode-based schedule switch request; campaigns model switch
          storms as many of these. *)
  | Clock_jitter of { partition : int; ticks : int }
      (** Lose [ticks] PAL clock-tick announcements for the partition, then
          deliver them as one catch-up burst
          ({!Air.System.inject_clock_jitter}). *)
  (* Spatial faults *)
  | Wild_access of {
      partition : int;
      section : Air_spatial.Memory.section;
      offset : int;  (** Bytes past the end of the section's region. *)
      write : bool;
    }
      (** Deliberate out-of-partition access: always denied by the MMU. *)
  | Bit_flip of {
      partition : int;
      section : Air_spatial.Memory.section;
      bit : int;  (** Address bit (mod 30) flipped in the region base. *)
      write : bool;
    }
      (** Single-event-upset model: an address bit flips. Low bits stay
          inside the partition's region (benign by spatial construction);
          high bits leave it and must be denied. *)
  | Bandwidth_hog of { partition : int; permille : int }
      (** Shared-resource interference: a one-shot burst of memory-bus
          demand charged to the partition's contention account, sized as
          [permille] of its per-window budget (so [1500] blows the budget
          outright). Requires a configured contention model; victims on
          other lanes may only degrade within the modeled slowdown curve
          (checked by the [Oracle]). *)
  (* Communication faults *)
  | Port_fault of { port : string; fault : comm_fault }
      (** Strike a channel of the module-local [Ipc.Router]. *)
  | Link_fault of { fault : comm_fault }
      (** Strike the earliest in-flight transfer of a [Air.Cluster] bus
          (requires a cluster target). *)
  (* Module faults *)
  | Module_error of { code : Error.code }
      (** Report a module-level error (simulated hardware fault, power
          failure, …) straight to the Health Monitor. *)

(** What a fault is allowed to disturb — the containment oracle's unit of
    blame. *)
type scope =
  | Scope_partition of int
      (** Effects must stay within this partition. *)
  | Scope_port of string
      (** Effects must stay within the partition owning the port (resolved
          against the module's port network). *)
  | Scope_module
      (** Module-wide effects are legitimate (configured module action). *)
  | Scope_benign
      (** Must not disturb anything: a legal service request (e.g. a
          schedule switch) that the module is required to absorb. *)

val scope : t -> scope

val guaranteed_detection : t -> Error.code option
(** The Health Monitor error code this fault {e must} raise when its
    application succeeds ([Engine.Applied]); [None] when detection depends
    on runtime circumstances (an overrun only misses a deadline if the
    slack runs out, a flipped address bit may stay in-region, a lost
    message is silent by nature). *)

val label : t -> string
(** Stable compact identifier used in trace markers, reports and JSON. *)

val pp : Format.formatter -> t -> unit
