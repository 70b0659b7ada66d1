(** The lexical rules shared by the line-oriented text formats: router
    configs ([Peering_router.Config]), [.exp] experiment specs
    ([Peering_check.Spec]) and [.world] files ([Peering_check.World]).
    Each format keeps only its grammar.

    Lines are numbered from 1. [#] starts a comment that runs to the
    end of the line, and a line that is blank once its comment is cut
    is skipped. A line whose first non-blank character is [!] is a
    {!Separator}. Any other line is a {!Stmt}: its tokens, split on
    spaces and tabs, and whether it starts with a space or a tab.

    A parse fails through one path: a handler or a reader calls
    {!fail}, and {!read} returns [Error]. No parser built on this
    module raises. *)

type error = { line : int option; msg : string }
(** [line] is [None] when no line is at fault. *)

val error_to_string : error -> string
(** ["line N: msg"], or [msg] alone when the error has no line. *)

type item = Separator | Stmt of { indented : bool; toks : string list }
(** A statement's [toks] are never empty. *)

val read :
  (int -> item -> unit) -> (unit -> 'a) -> string -> ('a, error) result
(** [read handle finish text] calls [handle n item] on each line [n] of
    [text] that is not skipped, in order, then returns [Ok (finish ())].
    The first {!fail} stops it with [Error] on the line being handled,
    or on no line when [finish] failed. *)

val fail : string -> 'a
(** Fail the parse. Call it, and the readers below, only inside the
    callbacks of {!read}. *)

(** {2 Token readers}

    Each checks every range before it builds a value, and fails with
    ["bad <what> \"<token>\""] instead of raising: [asn] reads
    {!Asn.of_string} ("asn"), [ipv4] a dotted quad ("address"),
    [prefix] {!Prefix.of_string} ("prefix"), [int] an OCaml [int]
    literal and [float] a finite float literal (both "number"; [nan],
    [inf] and literals that overflow to infinity fail). *)

val token : string -> (string -> 'a option) -> string -> 'a
(** [token what of_string s] is [of_string s], or fails naming [what]. *)

val asn : string -> Asn.t
val ipv4 : string -> Ipv4.t
val prefix : string -> Prefix.t
val int : string -> int
val float : string -> float
