(** Growable arrays.

    OCaml 5.1 predates [Dynarray]; this is the small subset the simulator
    needs (append-only logs, work lists). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Amortized O(1) append. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val last : 'a t -> 'a option

val pop_last : 'a t -> 'a option
(** Removes and returns the last element, O(1). *)

val iter : ('a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val filter : ('a -> bool) -> 'a t -> 'a list

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t
