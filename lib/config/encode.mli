(** Rendering a system configuration back into the configuration language.

    The inverse of {!Loader}: given an [Air.System.config], produce an
    [(air-system …)] document that {!Loader.load} accepts and that decodes
    to an equivalent configuration. Every [air-system] field is emitted,
    [cores] and [causal] included, except [faults]: campaigns are not part
    of [Air.System.config]. Keywords are spelled through the same
    {!Keywords} tables the loader decodes with. Used by integration
    tooling (dumping a programmatically built system for review) and by
    the round-trip property tests. *)

val to_string : Air.System.config -> string
(** The [(air-system …)] document as text. Raises [Invalid_argument] if
    the configuration cannot be expressed in the language (it always can
    for configurations produced by {!Loader.load} or built from the public
    constructors). *)
