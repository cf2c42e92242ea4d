(** Spatial-partitioning descriptors (paper Sect. 2.1, Fig. 3).

    Spatial partitioning requirements are described through a high-level,
    processor-independent abstraction: a set of descriptors per partition,
    primarily corresponding to the several levels of execution (application,
    operating system, AIR PMK) and to the partition's memory sections (code,
    data, stack). The {!Mmu} module maps these descriptors onto the simulated
    three-level page-based MMU. *)

(** Level of execution attempting an access. Orders privilege:
    [Pmk > Pos > Application]. *)
type exec_level = Application | Pos | Pmk

val pp_exec_level : Format.formatter -> exec_level -> unit

type section = Code | Data | Stack | Io

val section_equal : section -> section -> bool

type perms = { read : bool; write : bool; execute : bool }

val rwx : perms
val rw : perms
val rx : perms
val ro : perms

type region = {
  base : int;          (** Byte address, page aligned. *)
  size : int;          (** Bytes, page multiple. *)
  section : section;
  min_level : exec_level;
      (** Least privileged execution level allowed to use the region —
          [Application] regions are also accessible to [Pos] and [Pmk]
          (subject to [perms]); [Pmk] regions only to the PMK. *)
  perms : perms;
}

val region :
  ?min_level:exec_level -> base:int -> size:int -> section -> region
(** The region's permissions are its section's: Code → rx, Data, Stack
    and Io → rw; [min_level] defaults to [Application]. Raises [Invalid_argument] on non-positive
    size, negative base, or misalignment with respect to {!page_size}. *)

val page_size : int
(** 4 KiB, as in the SPARC V8 reference MMU. *)

val region_end : region -> int
(** One past the last byte. *)

val regions_overlap : region -> region -> bool

(** {1 Per-partition memory maps} *)

type map = {
  partition : Air_model.Ident.Partition_id.t;
  regions : region list;
}

val map : Air_model.Ident.Partition_id.t -> region list -> map

val validate_maps : map list -> string list
(** Human-readable diagnostics: overlapping regions within a map or across
    two partitions' maps (a spatial-separation configuration error). Empty
    list when the configuration is sound. *)

(** {1 Layout allocation}

    Development-tools support (paper Sect. 2.1): given section size
    requests, assign page-aligned, mutually disjoint address ranges. *)

type request = { req_section : section; req_size : int }

val allocate : (Air_model.Ident.Partition_id.t * request list) list -> map list
(** Packs all requested sections into consecutive page-aligned ranges
    starting at 0x4000_0000, leaving low memory to the PMK. Sizes are
    rounded up to whole pages. *)
