(** Text-mode windows, after VITRAL (paper Sect. 6, Fig. 9).

    The prototype uses VITRAL, a text-mode window manager for RTEMS, with
    one window per partition showing its output and further windows
    observing AIR components. Here a window is a titled, bounded scrollback
    of text lines rendered with box-drawing characters; a console lays
    windows out in rows. *)

type t

val create : ?height:int -> title:string -> width:int -> unit -> t
(** [height] is the number of content lines kept and shown (default 8);
    older lines scroll away. [width] is the inner content width. *)

val push : t -> string -> unit
(** Append one line (truncated to the window width). *)

val push_fmt : t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val lines : t -> string list

val render : t -> string list
(** Boxed: top border with the title, [height] content lines, bottom
    border. Every line has the same display width. *)

val render_grid : columns:int -> t list -> string
(** Lay windows out in rows of [columns]. *)
