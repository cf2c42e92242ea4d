(** Decoding combinators over {!Sexp.t} record forms.

    A "record form" is [(tag (field value…) (field value…))]; fields are
    looked up by name, duplicated fields are an error, and every decoder
    failure carries the path at which it occurred. *)

type 'a t = ('a, string) result

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val error : ('a, Format.formatter, unit, 'b t) format4 -> 'a
val map_all : ('a -> 'b t) -> 'a list -> 'b list t
(** Decode every element, failing on the first error. *)

val tagged : string -> Sexp.t -> Sexp.t list t
(** [(tag rest…)] → [rest]. *)

val tag_of : Sexp.t -> (string * Sexp.t list) t
(** Any [(tag rest…)] form. *)

type fields

val fields_of : context:string -> Sexp.t list -> fields t
(** Each element must be [(name value…)]; duplicate names rejected. *)

val required : fields -> string -> (Sexp.t list -> 'a t) -> 'a t
val optional : fields -> string -> (Sexp.t list -> 'a t) -> 'a option t
val with_default : fields -> string -> (Sexp.t list -> 'a t) -> 'a -> 'a t
val rest_of : fields -> string -> Sexp.t list
(** Raw arguments of a field, or the empty list when absent. *)

val assert_no_extra : fields -> known:string list -> unit t

(** {1 Value decoders (over a field's argument list)} *)

val one : (Sexp.t -> 'a t) -> Sexp.t list -> 'a t
val many : (Sexp.t -> 'a t) -> Sexp.t list -> 'a list t
val atom : Sexp.t -> string t
val int : Sexp.t -> int t
val keyword : (string * 'a) list -> Sexp.t -> 'a t
(** An atom looked up in a keyword table ({!Keywords}); the error lists
    the table's keywords. *)

val time : Sexp.t -> Air_sim.Time.t t
(** An integer tick count, or the atom [infinite]. *)

val timeout : Sexp.t -> Air_sim.Time.t t
(** Like {!time}, also accepting [poll] for 0. *)
