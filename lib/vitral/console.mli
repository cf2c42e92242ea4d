(** The VITRAL console (paper Fig. 9).

    The prototype shows "one window for each partition, where its output
    can be seen, and also two more windows which allow observation of the
    behaviour of AIR components". A console builds exactly that layout and
    routes trace events to the right window: application output to its
    partition's window, scheduler activity (switch requests, switches,
    change actions) to the PMK window, and errors, violations and recovery
    actions to the Health Monitor window. *)

open Air_model
open Ident

type t

val create :
  ?window_width:int -> partitions:(Partition_id.t * string) list -> unit -> t
(** One window per partition (titled with the given label) plus the
    "AIR PMK" and "AIR Health Monitor" windows, each six lines high. *)

val feed : t -> Air_sim.Time.t -> Event.t -> unit
(** Route one event. Events with no window (process state changes, port
    traffic, memory grants) are ignored. *)

val feed_trace : t -> Event.t Air_sim.Trace.t -> unit
(** {!feed} every event of a trace, oldest first. *)

val render : t -> string
(** The full console: partition windows first, then the AIR windows, laid
    out in two columns. *)
