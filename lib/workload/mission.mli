(** A four-phase mission profile for the mode-based schedules experiment
    (E7).

    The same four onboard functions — AOCS, TTC, Payload and FDIR — have
    different temporal requirements in different mission phases (paper
    Sect. 4: "adaptation of partition scheduling to different modes/phases
    (initialization, operation, etc.)"). Three PSTs share an MTF of 1200:

    - {e launch}: AOCS-heavy, payload gets no processor time;
    - {e science}: payload-heavy;
    - {e safe}: FDIR-heavy, payload off, minimal AOCS/TTC service. *)

open Air_model
open Air

val payload : Ident.Partition_id.t

val science : Ident.Schedule_id.t
val safe : Ident.Schedule_id.t

val schedules : Schedule.t list

val phases : (string * Ident.Schedule_id.t) list
(** In mission order: launch → science → safe. *)

val make : unit -> System.t
