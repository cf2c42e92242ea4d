(** Simulated three-level page-based MMU.

    Models the SPARC V8 reference MMU of the Gaisler LEON3 (paper Sect. 2.1):
    per-context page tables with a three-level walk — level-1 entries cover
    16 MiB, level-2 entries 256 KiB, level-3 entries 4 KiB pages. Mappings
    are identity (the simulation has no physical/virtual distinction); what
    the MMU enforces is {e protection}: each PTE carries the access
    permissions and the least privileged execution level allowed, derived
    from the partition's {!Memory.region} descriptors. *)

type access_kind = Read | Write | Execute

type fault_reason =
  | Unmapped     (** No PTE covers the address in this context. *)
  | Privilege    (** Execution level below the region's [min_level]. *)
  | Permission   (** Access kind not granted by the region's perms. *)

type fault = {
  context : int;
  address : int;
  access : access_kind;
  level : Memory.exec_level;
  reason : fault_reason;
}

val pp_fault : Format.formatter -> fault -> unit

type t

val create : ?metrics:Air_obs.Metrics.t -> ?contexts:int -> unit -> t
(** [contexts] defaults to 16 — one per partition plus the PMK context 0.
    [metrics] receives the [mmu.walks] / [mmu.faults(.reason)] counters; a
    private registry is used when omitted. *)

val map_region : t -> context:int -> Memory.region -> unit
(** Installs page-table entries for the region, using the largest entry size
    alignment permits (16 MiB / 256 KiB / 4 KiB). Raises [Invalid_argument]
    if any page of the region is already mapped in this context, or the
    context is out of range. *)

val map_partition : t -> context:int -> Memory.map -> unit

val translate :
  t ->
  context:int ->
  level:Memory.exec_level ->
  access:access_kind ->
  int ->
  (Memory.perms * Memory.exec_level, fault) result
(** Full page-table walk. On success returns the granting PTE's permissions
    and minimum level (the data a TLB caches). *)

val translate_costed :
  t ->
  context:int ->
  level:Memory.exec_level ->
  access:access_kind ->
  int ->
  (Memory.perms * Memory.exec_level, fault) result * int
(** As {!translate}, additionally reporting the walk depth: the number of
    table levels consulted (1 for a 16 MiB L1 hit, up to 3 for a 4 KiB
    page), the per-access cost unit the contention model charges. *)

val entry_count : t -> context:int -> int
(** Number of valid PTEs installed for the context (any level) — exposed for
    tests and for the E10 experiment's table-size report. *)

val acc_encoding : Memory.perms -> Memory.exec_level -> int
(** The SPARC V8 ACC field value (0–7) that most closely encodes the given
    permissions/privilege pair; informational (the walk checks the exact
    descriptor, which the 3-bit field cannot always express). *)
