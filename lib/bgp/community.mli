(** BGP communities (RFC 1997).

    A community is a 32-bit value conventionally written
    ["asn:value"]. PEERING uses communities as its client-facing
    control knob: clients tag announcements to select which peers the
    mux exports them to. *)

type t = private int
(** 32-bit community value. *)

val make : int -> int -> t
(** [make asn value] is the community [asn:value]; both halves are
    16-bit. Raises [Invalid_argument] out of range. *)

val of_int32 : int -> t
(** Raw 32-bit constructor (masked). *)

val to_int32 : t -> int

val asn_part : t -> int
val value_part : t -> int

val no_export : t
(** 0xFFFFFF01: do not export beyond the neighboring AS. *)

val no_advertise : t
(** 0xFFFFFF02: do not advertise to any peer. *)

val no_export_subconfed : t
(** 0xFFFFFF03. *)

val is_well_known : t -> bool

val of_string : string -> t option
(** Parses ["asn:value"]. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val mem : t -> t list -> bool
val add : t -> t list -> t list
(** Set-like insert preserving sorted order, no duplicates. *)

val remove : t -> t list -> t list
