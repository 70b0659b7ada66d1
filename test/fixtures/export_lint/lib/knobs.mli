(** One planted finding per rule of the export linter, and one knob of
    each kind that passes. *)

val unused : int -> int
(** No caller outside this module: fails. *)

val used : int -> int

val tune : ?depth:int -> int -> int
(** Every call passes [~depth:3]: fails. *)

val pick : ?depth:int -> int -> int
(** Calls pass two values. *)

val scale : factor:int -> int -> int
(** Every call passes [~factor:2]: fails. *)

val shift : by:int -> int -> int
(** Calls pass two values. *)

val greet : name:string -> string
(** One string literal names something: passes. *)

type config = { retries : int; label : string }

val default : config
(** [retries] keeps its literal everywhere: fails. *)
