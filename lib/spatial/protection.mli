(** The runtime spatial-partitioning unit: MMU + TLB + per-partition maps.

    This is the component the PMK consults on every memory access of a
    partition application (paper Fig. 3, lowest layer): the high-level
    descriptors are installed once at initialization, accesses go through
    the TLB and fall back to the table walk, and denials surface as faults
    that the Health Monitor turns into partition-level
    [Memory_violation] errors. *)

type t

val create :
  ?metrics:Air_obs.Metrics.t ->
  ?contexts:int ->
  Memory.map list ->
  t
(** Builds page tables for every map; partition [P_m] uses MMU context
    [index(P_m) + 1] (context 0 belongs to the PMK). Raises
    [Invalid_argument] if {!Memory.validate_maps} reports overlaps.
    [metrics] is shared by the embedded MMU and TLB ([mmu.*]/[tlb.*]
    series); a private registry is used when omitted. *)

val access :
  t ->
  partition:Air_model.Ident.Partition_id.t ->
  level:Memory.exec_level ->
  access:Mmu.access_kind ->
  int ->
  (unit, Mmu.fault) result
(** Checks one access by a partition. TLB hit short-circuits the walk; a
    miss walks the tables and fills the TLB on success. *)

val access_costed :
  t ->
  partition:Air_model.Ident.Partition_id.t ->
  level:Memory.exec_level ->
  access:Mmu.access_kind ->
  int ->
  (unit, Mmu.fault) result * int
(** As {!access}, additionally reporting the access cost in bandwidth
    units for the contention model: 1 for a TLB hit, [1 + walk depth]
    (2–4) for a miss. Denied accesses are costed like the walk that
    denied them. *)

val map_of : t -> Air_model.Ident.Partition_id.t -> Memory.map option

val tlb_stats : t -> Tlb.stats

val mmu : t -> Mmu.t
