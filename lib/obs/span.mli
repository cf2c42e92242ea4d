(** Flight-recorder spans: nested, integer-clock intervals with track
    attribution.

    A span names something that happened over an interval of the simulated
    clock — a partition holding the processor for its scheduling-table
    window, a Health Monitor handler running, a PAL supervision pass. Spans
    live on integer {e tracks} (the AIR convention: track [-1] is the
    module itself, track [i ≥ 0] is partition [i]) and carry an optional
    {e sub}-lane (a process index within the partition).

    Recording is O(1): one stack push per [begin_span], one ring store per
    completed span. Completed spans live in a {!Ring} of flat columns, one
    slot per span: six ints (track, sub, start, stop, kind and the value
    of an {!instant_value}) and two strings (name and detail). No ring
    holds boxed records: a queue of [span] records links each new cell
    from the previous one, so every span recorded between two minor
    collections was promoted to the major heap, evicted or not. The
    columns start empty and double up to [capacity], so creating a
    recorder allocates no column. A {!span} record is built only when
    {!spans} reads the ring. Names and details should be strings the
    caller already owns (literals, configured names): a detail formatted
    per record is promoted with its slot; {!instant_value} records a
    number instead and renders it when read.

    Like {!Sim.Trace}, retention of completed spans can be bounded — the
    recorder then keeps the most recent [capacity] spans while [total]
    keeps counting. The per-track open-span stacks are never evicted: a
    span that is still running cannot fall out of the recorder. *)

(** How the interval ended (or didn't). *)
type phase =
  | Complete  (** Properly closed: [stop] is the closing tick. *)
  | Instant   (** A point event; [stop = start]. *)
  | Open      (** Still running at export time; [stop] is a horizon. *)

type span = {
  name : string;
  track : int;  (** [-1] = module level; [i ≥ 0] = partition index [i]. *)
  sub : int;    (** Lane within the track (e.g. process index); 0 default. *)
  start : int;
  stop : int;
  detail : string;
  phase : phase;
}

type t

val create : ?capacity:int -> unit -> t
(** Unbounded retention by default. [capacity], when given, bounds the
    completed-span ring and must be positive. *)

val begin_span :
  t -> now:int -> track:int -> ?sub:int -> ?detail:string -> string -> unit
(** Open a span named after the last argument. Spans on the same track
    nest: [end_span] closes the most recently opened one. *)

val end_span : t -> now:int -> track:int -> unit
(** Close the innermost open span of [track]. A close with no matching
    open is counted in {!mismatches} and otherwise ignored. *)

val instant :
  t -> now:int -> track:int -> ?sub:int -> ?detail:string -> string -> unit
(** Record a point event ([phase = Instant], [stop = start = now]). *)

val instant_value :
  t -> now:int -> track:int -> ?sub:int -> key:string -> int -> string -> unit
(** [instant_value t ~now ~track ~key v name]: {!instant} whose detail
    reads [key=v], stored as the number [v] and rendered by {!spans}. *)

val spans : t -> span list
(** Retained completed and instant spans, in completion order (oldest
    first). *)

val open_spans : t -> now:int -> span list
(** Spans still open on any track, outermost first per track, with
    [stop = now] and [phase = Open]. The recorder is not modified. *)

val depth : t -> track:int -> int
(** Number of currently open spans on [track]. *)

val length : t -> int
(** Completed/instant spans currently retained. *)

val total : t -> int
(** Spans ever completed (≥ {!length} when bounded). *)

val dropped : t -> int
(** Completed spans evicted by bounded retention ([total - length]) — an
    exported trace with [dropped > 0] is a window, not the whole run. *)

val mismatches : t -> int
(** [end_span] calls that found no open span to close. *)

val pp_span : Format.formatter -> span -> unit
