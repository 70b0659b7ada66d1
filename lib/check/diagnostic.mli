(** Structured analyzer diagnostics.

    Every finding the static analyzer ({!Peering_check}) produces is a
    [Diagnostic.t]: a stable code (e.g. ["RTMAP-UNDEF"]), a severity, an
    optional source location, a human message, and an optional fix
    hint. The CLI renders these as [file:line: severity [CODE] message]
    and exits non-zero iff any {!Error}-severity diagnostic fired. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type t = {
  code : string;  (** stable, grep-able identifier, e.g. ["PFXLIST-BOUNDS"] *)
  severity : severity;
  file : string option;
  line : int option;
  message : string;
  hint : string option;  (** suggested fix, if we have one *)
}

val error : ?file:string -> ?line:int -> ?hint:string -> code:string -> string -> t
val warning : ?file:string -> ?line:int -> ?hint:string -> code:string -> string -> t

val with_file : string -> t -> t
(** Set [file] if the diagnostic does not already carry one. *)

val sort : t list -> t list

val count : severity -> t list -> int

val to_string : t -> string
