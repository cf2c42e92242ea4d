(** AIR Health Monitor (paper Sect. 2.4, 5).

    Handles hardware and software errors with the aim of isolating each
    error within its domain of occurrence: process-level errors invoke the
    recovery action the application programmer configured; partition-level
    errors trigger a response action defined at system integration time;
    module-level errors may stop or reinitialize the entire system.

    The monitor resolves an error to the configured action — including the
    paper's "log the error a certain number of times before acting upon it"
    policy ({!Air_model.Error.Log_then}) — and counts occurrences; the
    system layer executes the resolved action. *)

open Air_model
open Ident

type tables = {
  process_actions :
    (Partition_id.t * Error.code * Error.process_action) list;
      (** Per-partition process-level recovery actions; missing entries
          default to [Ignore_error] (log only). *)
  partition_actions :
    (Partition_id.t * Error.code * Error.partition_action) list;
      (** Missing entries default to [Partition_ignore]. *)
  module_actions : (Error.code * Error.module_action) list;
      (** Missing entries default to [Module_ignore]. *)
  process_defaults : (Error.code * Error.process_action) list;
      (** Wildcard process-level actions, applying to any partition without
          a specific [process_actions] entry for the code. *)
  partition_defaults : (Error.code * Error.partition_action) list;
      (** Wildcard partition-level actions, consulted after
          [partition_actions]. *)
}

val default_tables : tables
(** Everything ignored (logged only) — the permissive integration baseline.
    Deadline misses at process level, memory violations at partition level
    and configuration errors at module level are still logged. *)

val strict_tables : tables
(** A representative strict integration, expressed as wildcard entries so it
    covers every partition of any module: deadline miss → stop faulty
    process; memory violation → partition warm restart; hardware fault →
    module reset; power failure → module shutdown. *)

type t

val create : ?tables:tables -> unit -> t
(** [tables] defaults to {!default_tables}. The monitor touches no metrics
    registry: a module's [hm.*] metrics are views of {!level_count},
    {!code_count} and {!actions_taken}. *)

val resolve_process_error :
  t ->
  partition:Partition_id.t ->
  process:int ->
  code:Error.code ->
  Error.process_action
(** Resolves the configured action; [Log_then (n, a)] yields [Ignore_error]
    for the first [n] occurrences of this (partition, process, code) triple
    and [a] afterwards. *)

val resolve_partition_error :
  t -> partition:Partition_id.t -> code:Error.code -> Error.partition_action

val resolve_module_error : t -> code:Error.code -> Error.module_action

val error_count : t -> int
(** Total errors resolved so far. *)

val level_count : t -> Error.level -> int
(** Errors resolved so far at this level. *)

val code_count : t -> Error.code -> int
(** Errors resolved so far with this code, at every level. *)

val actions_taken : t -> int
(** Resolutions that escalated past the ignore/log-only baseline. *)
