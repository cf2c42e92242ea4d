(** Bounded record rings stored as flat columns.

    The retention ring behind {!Telemetry}'s closed frames, {!Span}'s
    completed spans and {!Causal}'s hops. A slot is [ints] int fields and
    [strings] string fields at fixed offsets of two flat arrays, so a
    record is written field by field in place and the ring holds no
    record, list cell or queue link of its own. A [Stdlib.Queue] of
    records would write every new cell into the previous one; once that
    one is in the major heap, the collector treats the write as a root,
    so every record pushed between two minor collections is promoted,
    evicted or not.

    Creating a ring allocates no column: the columns start empty and
    double, up to the bound, when a push finds them full, so a large bound
    costs memory only as records arrive. Int fields cost no write barrier.
    A string field should hold a string the caller already keeps (a
    literal, a configured name): a string made per record is promoted
    with the slot that holds it.

    The owning module writes and reads the columns directly (the type is
    [private] for that: a call per field would cost more than the field)
    and builds its records only when something reads the ring, walking
    {!slot} from 0 (oldest) to [length - 1] (newest). *)

type t = private {
  bound : int;  (** Records kept; [max_int] when unbounded. *)
  ints : int;  (** Int fields per slot. *)
  strings : int;  (** String fields per slot. *)
  mutable int_col : int array;
      (** Slot [s]'s int fields, from [s * ints]. Replaced by a push that
          grows the ring: read it after {!push}. *)
  mutable string_col : string array;
      (** Slot [s]'s string fields, from [s * strings]; likewise. *)
  mutable slots : int;  (** Slots the columns hold. *)
  mutable next : int;  (** Slot the next push claims. *)
  mutable len : int;
  mutable total : int;
}

val create : ?bound:int -> ints:int -> strings:int -> unit -> t
(** An empty ring of slots of [ints] int and [strings] string fields,
    keeping the newest [bound] pushes (every push when [bound] is
    omitted). Raises [Invalid_argument] if [bound <= 0]. *)

val push : t -> int
(** Claim the slot of a new record, growing the columns or evicting the
    oldest record, and return it. The slot's fields still hold the
    evicted record's values (0 and [""] in a fresh slot); the caller sets
    every field. *)

val slot : t -> int -> int
(** [slot t i]: the slot of the [i]-th oldest retained record,
    [0 <= i < length t]. *)

val length : t -> int
(** Records retained. *)

val total : t -> int
(** Records ever pushed. *)

val dropped : t -> int
(** Records evicted ([total - length]). *)
