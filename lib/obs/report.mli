(** Rendering of metrics snapshots: a human-readable table for terminals,
    an s-expression for the config toolchain, and JSON for external
    dashboards.

    The optional [events] argument appends per-kind event totals (as
    produced by [Air.System.event_counts]: nonzero kinds, sorted by kind
    name) to the report. *)

val pp :
  ?events:(string * int) list ->
  Format.formatter ->
  Metrics.snapshot ->
  unit

val to_string : ?events:(string * int) list -> Metrics.snapshot -> string

val to_sexp : ?events:(string * int) list -> Metrics.snapshot -> string
(** [(metrics (counter NAME N) (gauge NAME N)
    (histogram NAME (n N) (total N) (peak N)) (event KIND N) ...)] *)

val to_json : ?events:(string * int) list -> Metrics.snapshot -> string
(** A single JSON object: [{"metrics":{NAME:{"kind":...},...},
    "events":{KIND:N,...}}]. Hand-rolled — no JSON library dependency. *)

val json_escape : string -> string
(** JSON string-content escaping: quotes, backslashes and every control
    character below [0x20] (as [\uXXXX]); shared by every hand-rolled JSON
    writer in the repository. *)
