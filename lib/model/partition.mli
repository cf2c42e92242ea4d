(** Partitions, eq. (1) and (16).

    Under mode-based schedules (paper Sect. 4.1) a partition is deprived of
    timing requirements of its own — ⟨τ_m, M_m(t)⟩ — since period and
    duration become attributes of the partition {e in a given schedule}
    (eq. (19)). The operating mode M_m(t) is runtime state; here we keep its
    type and the static description. *)

type mode =
  | Normal      (** Operational, process scheduler active. *)
  | Idle        (** Shut down, executing no processes. *)
  | Cold_start  (** Initializing, process scheduling disabled, cold context. *)
  | Warm_start  (** Initializing, process scheduling disabled, warm context. *)

val mode_equal : mode -> mode -> bool
val pp_mode : Format.formatter -> mode -> unit

type kind =
  | Application
      (** Uses the strict APEX service interface only. *)
  | System
      (** May bypass APEX and use POS-kernel functions directly (required by
          ARINC 653); typically runs management functions and is the only
          kind authorized to request schedule switches. *)

val kind_equal : kind -> kind -> bool

type t = {
  id : Ident.Partition_id.t;
  name : string;
  kind : kind;
  processes : Process.spec array;  (** τ_m, eq. (10). *)
  initial_mode : mode;
      (** Mode entered at system start — ARINC 653 partitions boot in
          [Cold_start]; tests may start them [Normal] directly. *)
}

val make :
  ?kind:kind ->
  ?initial_mode:mode ->
  id:Ident.Partition_id.t ->
  name:string ->
  Process.spec list ->
  t

val process_count : t -> int

val process_id : t -> int -> Ident.Process_id.t
(** [process_id p q] is the id of τ_(m,q). Raises [Invalid_argument] when
    [q] is out of range. *)

val find_process : t -> string -> (int * Process.spec) option
(** Look up a process by name. *)
