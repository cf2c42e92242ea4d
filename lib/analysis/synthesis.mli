(** Automated generation of partition scheduling tables.

    One of the paper's motivations for the formal model: "automated aids to
    the definition of system parameters" (Sect. 1). Given per-partition
    timing requirements ⟨η, d⟩, produce a PST satisfying eqs. (21)–(23), or
    report why none could be built by this (greedy, earliest-fit) method. *)

open Air_sim
open Air_model
open Ident

type failure =
  | Overcommitted of { utilization : float }
      (** Σ d/η exceeds 1 — no table can exist. *)
  | No_room of { partition : Partition_id.t; cycle_index : int }
      (** Earliest-fit could not place the partition's duration within one
          of its cycles (a different placement might still exist). *)
  | Bad_requirement of string

val pp_failure : Format.formatter -> failure -> unit

val synthesize :
  ?id:Schedule_id.t ->
  ?mtf:Time.t ->
  Schedule.requirement list ->
  (Schedule.t, failure) result
(** Builds table [id] (default 0), named ["synthesized"], over [mtf]
    (default: the lcm of the cycles, eq. (22)).
    Partitions are placed in increasing cycle order (rate-monotonic-like);
    within each of a partition's cycles its duration is placed into the
    earliest free slots, possibly split across several windows. The result
    always passes {!Validate.validate}. *)

val synthesize_harmonic :
  Schedule.requirement list -> (Schedule.t, failure) result
(** Like {!synthesize} (table 0) but refuses non-harmonic cycle sets (every cycle
    must divide the largest) — the shape integrators usually insist on. *)
