(** Interpartition communication configuration (paper Sect. 2.1).

    Applications exchange messages through configuration-named ports, in a
    way agnostic of whether partitions are local or remote. ARINC 653
    defines two transfer modes: {e sampling} (a single message slot whose
    content is overwritten by each write and carries a validity bounded by a
    refresh period) and {e queuing} (a bounded FIFO of messages). Channels
    connect one source port to one or more destination ports. *)

open Air_sim
open Air_model.Ident

type direction = Source | Destination

val direction_equal : direction -> direction -> bool

type kind =
  | Sampling of { refresh : Time.t }
      (** A message older than [refresh] at read time is flagged invalid. *)
  | Queuing of { depth : int }
      (** At most [depth] messages buffered at the destination. *)

type config = {
  name : Port_name.t;
  partition : Partition_id.t;  (** Owning partition. *)
  direction : direction;
  kind : kind;
  max_message_size : int;      (** Bytes. *)
}

val sampling_port :
  name:Port_name.t ->
  partition:Partition_id.t ->
  direction:direction ->
  refresh:Time.t ->
  max_message_size:int ->
  config

val queuing_port :
  name:Port_name.t ->
  partition:Partition_id.t ->
  direction:direction ->
  depth:int ->
  max_message_size:int ->
  config

type channel = {
  source : Port_name.t;
  destinations : Port_name.t list;
}

type network = { ports : config list; channels : channel list }

val validate : network -> string list
(** Diagnostics: duplicate port names, channels naming unknown ports, a
    source feeding multiple channels, direction or mode mismatches between
    a channel's endpoints, destination message size smaller than the
    source's, a destination fed by two channels, a queuing channel with
    more than one destination (ARINC 653 queuing channels are strictly
    1:1; only sampling channels fan out). Empty when sound. *)
