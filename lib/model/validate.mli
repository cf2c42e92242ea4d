(** Offline verification of integrator-defined system parameters.

    Checks the constraints the paper states on partition scheduling tables:

    - eq. (21): windows do not intersect and are fully contained in the MTF;
    - eq. (22): MTF_i is a multiple of the lcm of the partitions' cycles;
    - eq. (23): within every cycle a partition completes inside the MTF, its
      windows provide at least the assigned duration d (the fundamental
      timing-requirement fulfilment condition — it implies eq. (8)).

    Plus the structural conditions implicit in eqs. (18)–(20): window
    partitions belong to Q_i, requirements are unique, cycles are positive
    and divide the MTF. *)

open Air_sim
open Ident

type diagnostic =
  | Empty_requirements of { schedule : Schedule_id.t }
  | Duplicate_requirement of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
    }
  | Nonpositive_cycle of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle : Time.t;
    }
  | Duration_exceeds_cycle of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      duration : Time.t;
      cycle : Time.t;
    }
  | Window_overlap of {
      schedule : Schedule_id.t;
      first : Schedule.window;
      second : Schedule.window;
    }  (** Violates the first part of eq. (21). *)
  | Window_exceeds_mtf of {
      schedule : Schedule_id.t;
      window : Schedule.window;
      mtf : Time.t;
    }  (** Violates the second part of eq. (21). *)
  | Window_for_unknown_partition of {
      schedule : Schedule_id.t;
      window : Schedule.window;
    }  (** Violates P^ω ∈ Q_i of eq. (20). *)
  | Mtf_not_multiple_of_lcm of {
      schedule : Schedule_id.t;
      mtf : Time.t;
      lcm : Time.t;
    }  (** Violates eq. (22). *)
  | Cycle_not_dividing_mtf of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle : Time.t;
      mtf : Time.t;
    }
      (** MTF_i/η must be a whole number of cycles for eq. (23) to be
          evaluable; implied by eq. (22) when that one holds. *)
  | Insufficient_cycle_duration of {
      schedule : Schedule_id.t;
      partition : Partition_id.t;
      cycle_index : int;  (** k in eq. (23). *)
      provided : Time.t;
      required : Time.t;
    }  (** Violates eq. (23). *)
  | Duplicate_schedule_id of { id : Schedule_id.t }
  | Empty_schedule_set

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val validate : Schedule.t -> diagnostic list
(** All diagnostics for one PST; the empty list means the table satisfies
    eqs. (21)–(23). *)

val validate_set : Schedule.t list -> diagnostic list
(** {!validate} on every table plus set-level checks (non-empty, unique
    ids). *)

val cycle_supply : Schedule.t -> Partition_id.t -> k:int -> Time.t
(** Left-hand side of eq. (23): the window time given to the partition
    during its [k]-th cycle within the MTF (windows whose offset falls in
    [\[kη, (k+1)η)]). Raises [Invalid_argument] if the partition has no
    requirement in the schedule. *)

val explain_requirement :
  Format.formatter -> Schedule.t -> Partition_id.t -> k:int -> unit
(** Prints the instantiation of eq. (23) for the given partition and cycle
    index — the derivation the paper spells out as eq. (25) for P1 under χ1.
    Raises [Invalid_argument] if the partition has no requirement. *)
