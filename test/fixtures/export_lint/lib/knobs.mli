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

type color = Red | Green | Blue
(** The app builds [Red]; only a test builds [Green], and nothing
    builds [Blue]: both fail. *)

val paint : color -> string

type tally = { name : string; note : string; mutable hits : int; mutable misses : int }
(** [note] is written and never read, and nothing assigns [misses]:
    both fail. [hits] is assigned and read. *)

val hit : tally -> unit

type limits = { retries : int }
(** Shares a field name with [config], so a name-only match would let
    the app's [limits] record hide [config.retries]. *)
