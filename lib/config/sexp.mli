(** S-expressions — the configuration syntax.

    ARINC 653 systems are configured through integration-time documents
    (XML in the standard); this repository uses s-expressions to stay free
    of external dependencies. Atoms are bare words or double-quoted strings
    with backslash escapes for quote, backslash, newline and tab; comments
    run from [;] to end of line.

    The reader tracks only a byte index into the input: an error's line and
    column are derived from that index when the error is reported. *)

type t = Atom of string | List of t list

type position = { line : int; column : int }

type error = { message : string; position : position }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (t list, error) result
(** All toplevel expressions in the input. *)

val parse_one : string -> (t, error) result
(** Exactly one toplevel expression (surrounding whitespace allowed). *)

val parse_file : string -> (t list, error) result
(** Reads and parses a file; I/O failures are reported as a parse error at
    line 0. *)

val to_string : t -> string
