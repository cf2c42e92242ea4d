(** Binary min-heaps over client-ordered elements.

    Used for timer queues in the POS substrate and as the pairing-heap
    comparator baseline in the deadline-store ablation (experiment E5). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, O(1). *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element, O(log n). *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; O(n log n). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
