(** Identifiers for the entities of the AIR system model.

    Identifiers are small integers under the hood (they index arrays in the
    runtime) but are kept abstract so that a partition index can never be
    confused with a schedule index. *)

module Partition_id : sig
  type t

  val make : int -> t
  (** Raises [Invalid_argument] on negative indices. *)

  val index : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  (** Prints as ["P<n+1>"], matching the paper's 1-based notation. *)
end

module Process_id : sig
  type t
  (** A process is identified by its partition and its 0-based index within
      the partition's task set τ_m (eq. (10)). *)

  val make : Partition_id.t -> int -> t
  val partition : t -> Partition_id.t
  val index : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  (** Prints as ["τ<m>,<q>"] in the paper's 1-based notation. *)
end

module Schedule_id : sig
  type t

  val make : int -> t
  val index : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  (** Prints as ["χ<i+1>"]. *)
end

module Port_name : sig
  type t = string
  (** ARINC 653 ports are configuration-named; names are unique per module. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end
