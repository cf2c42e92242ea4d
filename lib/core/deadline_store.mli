(** Process deadline stores (paper Sect. 5.3).

    The AIR PAL keeps, per partition, the deadlines of the processes
    accounted for deadline verification, ordered by ascending deadline time,
    so that the earliest deadline is retrieved in O(1) inside the system
    clock ISR (Algorithm 3). AIR uses a sorted linked list; the paper argues
    a self-balancing binary search tree's O(log n) insertion advantage does
    not pay off for the small process counts involved and is the wrong
    trade-off inside an ISR. Three interchangeable implementations let
    experiment E5 test that argument. *)

open Air_sim

module type S = sig
  type t

  val name : string

  val create : unit -> t

  val register : t -> process:int -> Time.t -> unit
  (** Insert the process' deadline, or update it if already present
      (START, REPLENISH, periodic release — paper Sect. 5.2). *)

  val unregister : t -> process:int -> unit
  (** Remove the process' deadline (STOP, partition shutdown). No-op when
      absent. *)

  val earliest : t -> (int * Time.t) option
  (** The process with the smallest deadline time. *)

  val min_deadline : t -> Time.t
  (** The smallest deadline time alone, {!Air_sim.Time.infinity} when the
      store is empty — the allocation-free form the PAL's per-tick
      verification fast path uses (no option, no tuple). *)

  val remove_earliest : t -> unit
  (** Drop the entry returned by {!earliest} (Algorithm 3, line 7). *)

  val find : t -> process:int -> Time.t option

  val size : t -> int

  val clear : t -> unit

  val to_sorted_list : t -> (int * Time.t) list
  (** Ascending deadline time; ties broken by process index. *)
end

module Linked_list : S
(** Sorted doubly-linked list — AIR's choice: O(1) earliest retrieval and
    removal, O(n) registration. *)

module Avl : S
(** Self-balancing binary search tree: O(log n) registration, O(log n)
    earliest. The theoretical alternative the paper weighs. *)

module Pairing : S
(** Pairing heap with lazy deletion: O(1) amortized registration, amortized
    O(log n) earliest removal. Superseded entries are skipped when they
    surface; the heap is additionally rebuilt from the live index whenever
    stale entries outnumber live ones 2:1, so register-heavy workloads that
    rarely query the minimum cannot grow it without bound. *)

type impl = Linked_list_impl | Avl_impl | Pairing_impl

val pp_impl : Format.formatter -> impl -> unit
val all_impls : impl list

type t
(** A store of a dynamically chosen implementation. *)

val create : impl -> t
val impl : t -> impl
val register : t -> process:int -> Time.t -> unit
val unregister : t -> process:int -> unit
val earliest : t -> (int * Time.t) option
val min_deadline : t -> Time.t
val remove_earliest : t -> unit
val find : t -> process:int -> Time.t option
val size : t -> int
val clear : t -> unit
val to_sorted_list : t -> (int * Time.t) list
