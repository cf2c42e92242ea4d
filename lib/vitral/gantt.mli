(** Text Gantt charts of partition schedules and execution traces.

    Renders Fig. 8's scheduling tables and the observed processor
    occupation of a run as one row per partition over a scaled time axis. *)

open Air_sim
open Air_model
open Ident

val of_schedule : Schedule.t -> string
(** Static chart of the PST's windows over one MTF, 65 columns wide. A cell is filled ("█") when the partition holds the
    majority of the cell's tick range, half-filled ("▒") when it holds part
    of it. Includes an offset ruler and per-partition window lists. *)

val of_activity :
  partitions:Partition_id.t list ->
  from:Time.t ->
  until:Time.t ->
  (Time.t * Partition_id.t option) list ->
  string
(** Chart of observed context switches (as produced by
    [Air.System.activity]) over [\[from, until)], 65 columns wide. *)

val occupancy :
  partitions:Partition_id.t list ->
  from:Time.t ->
  until:Time.t ->
  (Time.t * Partition_id.t option) list ->
  (Partition_id.t option * Time.t) list
(** Ticks held by each partition (and the idle share, keyed [None]) in the
    interval, reconstructed from the context-switch history. *)
