(** Time-stamped event logs.

    A ['a Trace.t] collects [(time, 'a)] pairs in arrival order. The full
    system uses it with the event type of the AIR core; tests use it with
    small ad-hoc variants. Recording can be bounded: the trace then keeps the
    most recent [capacity] events (the prototype's VITRAL windows behave the
    same way). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Unbounded by default. [capacity], when given, must be positive. *)

val record : 'a t -> Time.t -> 'a -> unit

val length : 'a t -> int
(** Number of events currently retained. *)

val total : 'a t -> int
(** Number of events ever recorded (≥ {!length} when bounded). *)

val to_list : 'a t -> (Time.t * 'a) list
(** Oldest first. *)

val events : 'a t -> 'a list

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit

val filter : (Time.t -> 'a -> bool) -> 'a t -> (Time.t * 'a) list

val between : 'a t -> Time.t -> Time.t -> (Time.t * 'a) list
(** [between t from until] — events with [from <= time < until], oldest
    first. The interval is half-open: an event stamped exactly [until] is
    excluded, so consecutive calls with [(a, b)] and [(b, c)] partition
    the events without overlap. Empty when [until <= from]. *)

val count : ('a -> bool) -> 'a t -> int

val find_first : ('a -> bool) -> 'a t -> (Time.t * 'a) option

val find_last : ('a -> bool) -> 'a t -> (Time.t * 'a) option
