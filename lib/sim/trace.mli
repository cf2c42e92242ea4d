(** Time-stamped event logs, packed.

    A ['a Trace.t] collects [(time, 'a)] pairs in arrival order, in chunks
    of at most 256 entries, so growth never copies a kept entry. A chunk is
    one [Bytes] buffer, which the garbage collector never scans: each entry
    is base-128 varints of its time less the previous entry's, its header
    and its wide payload, then the text of an entry that has one, inline.
    That is the stream {!digest} hashes. A chunk gets a column of boxed
    values only once it holds an entry the codec keeps whole. A new chunk's
    buffer is sized from the previous chunk's final length, so steady
    recording allocates once per chunk.

    The codec given to {!create} maps values to and from that form. A read
    decodes each chunk in sequence into values of its own; equal entries
    may share one value within a read.

    Recording can be bounded: the trace then keeps the most recent
    [capacity] events (the prototype's VITRAL windows behave the same way),
    as a ring over ceil(capacity / 256) + 1 chunk slots, in which a boxed
    value dies with its entry's eviction. *)

type 'a codec = {
  header : 'a -> int;
      (** The value's kind and small fields. Its two low bits are flags the
          trace reads: {!text} (keep [text v] too) and {!boxed} (keep [v]
          itself; [wide], [text] and [decode] are then not called). *)
  wide : 'a -> int;  (** The payload that needs a whole int. *)
  text : 'a -> string;
  decode : int -> int -> string -> 'a;
      (** [decode header wide text], [text] being [""] without the flag. *)
  blank : 'a;  (** Fills a boxed column where no boxed entry is. *)
}
(** [header], [wide] and [text] run on every {!record} and should not
    allocate; [decode] should be pure, since a read may return one decoded
    value for equal entries. *)

val text : int
(** Header flag: the entry carries [codec.text v]. *)

val boxed : int
(** Header flag: the entry is kept as the value itself. *)

type 'a t

val create : codec:'a codec -> ?capacity:int -> unit -> 'a t
(** Unbounded by default. [capacity], when given, must be positive. Allocates
    no chunk: the first {!record} does. *)

val record : 'a t -> Time.t -> 'a -> unit
(** Allocates nothing but chunk storage. *)

val length : 'a t -> int
(** Number of events currently retained. *)

val total : 'a t -> int
(** Number of events ever recorded (≥ {!length} when bounded). *)

val to_list : 'a t -> (Time.t * 'a) list
(** Oldest first. *)

val events : 'a t -> 'a list

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit
(** Oldest first; allocates per entry at most the decoded value. So do
    {!fold} and {!count}. *)

val fold : ('acc -> Time.t -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val filter : (Time.t -> 'a -> bool) -> 'a t -> (Time.t * 'a) list

val between : 'a t -> Time.t -> Time.t -> (Time.t * 'a) list
(** [between t from until] — events with [from <= time < until], oldest
    first. The interval is half-open: an event stamped exactly [until] is
    excluded, so consecutive calls with [(a, b)] and [(b, c)] partition
    the events without overlap. Empty when [until <= from]. *)

val count : ('a -> bool) -> 'a t -> int

val find_first : ('a -> bool) -> 'a t -> (Time.t * 'a) option

val find_last : ('a -> bool) -> 'a t -> (Time.t * 'a) option

val digest : 'a t -> Digest.t
(** Digest of the retained entries' stream, oldest first: each entry's time
    less the previous one's (the first's less 0), header and wide payload
    (0 when boxed) as varints, then its text, length first, or the
    [Marshal] image of its boxed value (which must hold no closure). The
    stream is cut into pieces after the entry that brings one to 64 KB,
    and the pieces' digests are digested. The chunks store that stream, so
    nothing is decoded. Equal retained traces under one codec digest
    alike. *)
