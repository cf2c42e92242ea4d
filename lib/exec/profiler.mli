(** Self-profiler for the skip-ahead executive.

    Attached to an {!Engine} at creation ([Engine.create ?profiler]), it
    attributes wall-clock time and tick counts to the engine's execution
    mechanisms:

    - {e per-tick steps} — ticks executed one at a time with engine
      bookkeeping (quiescence check, probe decision) between them;
    - {e blind batches} — ticks executed through [System.run] with no
      bookkeeping in between (adaptive dense phases, and whole
      [Per_tick]-mode advances);
    - {e skipped spans} — ticks collapsed into O(1) batch clock updates
      by successful probes;
    - {e probes} — [Clock.next_interesting] evaluations, split into those
      that paid off (a span was skipped) and those that were pure
      overhead ({e wasted});

    plus the recent trajectory of the adaptive density estimate (0–256,
    sampled at probe outcomes and batch launches). The step, batch and
    skip tick buckets partition the simulated horizon exactly:
    [step.ticks + batch.ticks + skip.ticks = simulated] — the invariant
    the [profile-smoke] CI check pins.

    Profiling is purely observational: traces, telemetry, metrics and
    fingerprints are bit-identical with and without a profiler; the only
    cost is two wall-clock reads around each instrumented operation. *)

type t

val create : unit -> t
(** The profiler retains the latest 1024 density samples; older samples
    are evicted, the sample count keeps counting. *)

val timestamp : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the engine brackets
    instrumented operations with it. *)

(** {1 Recording} (called by {!Engine}; O(1), float adds only) *)

val note_step : t -> seconds:float -> unit
val note_batch : t -> ticks:int -> seconds:float -> unit

val note_probe : t -> skipped:int -> seconds:float -> unit
(** [skipped > 0] counts a successful probe and credits the span to the
    skip bucket; [skipped = 0] counts a wasted probe. *)

val note_density : t -> int -> unit

(** {1 Reading} *)

val simulated : t -> int
(** [step + batch + skip] ticks — equals the engine's simulated total. *)

val probes : t -> int
val density_trajectory : t -> int list
(** Retained density samples, oldest first. *)

val to_text : t -> string
(** Human-readable bucket report with ns/tick rates. *)

val to_json : t -> string
(** One-line JSON document, schema ["air-profile/1"]: [simulated], the
    [buckets] object ([step]/[batch]/[skip] with tick counts, call counts
    and wall seconds), [probes] (total/successful/wasted + seconds) and
    [density] (sample count + retained trajectory). *)
