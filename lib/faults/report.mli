(** Campaign reports: per-fault outcome, detection-latency percentiles and
    containment verdict, in text (via [Vitral.Campaign]) and JSON.

    JSON schema ["air-campaign/1"]:

    {v
    { "schema": "air-campaign/1",
      "campaigns": [
        { "name": "...", "seed": 7, "horizon": 20000, "mtf": 2000,
          "deterministic": true,
          "faults": [
            { "at": 1500, "label": "wild-access p1 data+64 write",
              "status": "applied", "detected_at": 1499,
              "latency": 0, "action": "partition warm restart" }, ... ],
          "detection_latency":
            { "samples": 3, "p50": 0, "p90": 4, "p99": 4, "max": 4 },
          "containment":
            { "verdict": "contained", "checks": 210, "findings": [] } },
        ... ] }
    v}

    [detected_at], [latency] and [action] are [null] for undetected faults;
    [deterministic] is omitted when reproducibility was not checked. The
    rendering is canonical — no whitespace variation, fields always in the
    order above — so byte-equality of two reports is exactly equality of
    their content (the acceptance criterion for seeded reproducibility). *)

type t = {
  run : Engine.run;
  verdict : Oracle.verdict;
  reproducible : bool option;
}

val make : ?reproducible:bool -> Engine.run -> Oracle.verdict -> t

val to_text : t -> string

val to_json : t -> string
(** One campaign object (no schema wrapper). *)

val document : t list -> string
(** The full ["air-campaign/1"] document. *)
