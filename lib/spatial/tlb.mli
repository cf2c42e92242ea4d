(** A small fully-associative translation lookaside buffer.

    Caches page-granular results of {!Mmu.translate} walks, tagged by MMU
    context (so a partition switch does not require a flush, as on the
    LEON3). Replacement is FIFO. Hit/miss counters feed the E10 experiment
    and are recorded on an {!Air_obs.Metrics} registry as the [tlb.*]
    series. *)

type t

val create : ?metrics:Air_obs.Metrics.t -> ?capacity:int -> unit -> t
(** [capacity] defaults to 32 entries; must be positive. [metrics] is the
    registry receiving the [tlb.hits]/[tlb.misses] counters; a private
    registry is used when omitted. *)

type entry = {
  context : int;
  vpn : int;  (** Virtual page number: address / page size. *)
  perms : Memory.perms;
  min_level : Memory.exec_level;
}

val lookup : t -> context:int -> vpn:int -> entry option

val insert : t -> entry -> unit
(** Replaces any existing entry for the same (context, vpn). *)

type stats = { hits : int; misses : int }
(** The two registry counters, read together. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
