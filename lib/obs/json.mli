(** A minimal JSON tree, emitter and parser.

    Benchmark results, metric snapshots and CLI output all flow through
    this one representation so that every machine-readable artifact the
    repository produces has the same, deterministic shape (REPETITA's
    argument: reproducible evaluation needs standard formats plus
    re-runnable measurement). No external JSON library is used; the
    emitter is canonical — same value, same bytes — which is what lets
    two identically-seeded bench runs diff as byte-identical files.
    It is also the only emitter: every document is built whole as a
    tree and printed once by {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Members are emitted in the order given; callers that want
          canonical output sort their keys (snapshots already do). *)

val to_string : ?indent:int -> t -> string
(** Serialize. With [indent] (spaces per level, default compact)
    the output is pretty-printed; either form is deterministic.
    Floats are printed with ["%.12g"], so values that round-trip
    through 12 significant digits re-parse exactly; non-finite floats
    are emitted as [null] (JSON has no representation for them). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. Numbers without [.], [e] or [E]
    become [Int]; everything else becomes [Float]. The error string
    carries a byte offset. Trailing garbage after the document is an
    error. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k], if any; [None] on
    non-objects. *)

val to_list : t -> t list
(** The elements of a [List]; [] on any other constructor. *)

val string_value : t -> string option
(** The payload of a [String]; [None] otherwise. *)

val number_value : t -> float option
(** The numeric payload of an [Int] or [Float]; [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality ([Int 1] and [Float 1.] are distinct). *)
