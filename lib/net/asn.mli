(** Autonomous System Numbers.

    We support 4-byte ASNs (RFC 6793). The private ranges matter to
    PEERING: emulated client domains sit on private ASNs that the mux
    strips before announcements reach real peers. *)

type t = private int

val of_int : int -> t
(** [of_int n] is ASN [n]. Raises [Invalid_argument] if [n] is negative
    or exceeds the 32-bit ASN space. *)

val of_string : string -> t option
(** [of_string s] reads an ASN written as an integer; [None] if [s]
    is not one or lies outside the 32-bit ASN space. *)

val to_int : t -> int

val is_private : t -> bool
(** [is_private a] is [true] for 64512–65534 (RFC 6996 16-bit range)
    and 4200000000–4294967294 (32-bit range). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
