(** IPv6 CIDR prefixes, mirroring {!Prefix} for the v6 space. *)

type t = private { addr : Ipv6.t; len : int }

val make : Ipv6.t -> int -> t
(** Host bits cleared; [0 <= len <= 128]. *)

val of_string_exn : string -> t
val to_string : t -> string
val addr : t -> Ipv6.t
val len : t -> int
val mem : Ipv6.t -> t -> bool
val subsumes : t -> t -> bool
val nth_subprefix : t -> int -> int -> t
(** [nth_subprefix p l i]: the [i]-th length-[l] subprefix, [i] within
    the low 62 bits of range. *)

val equal : t -> t -> bool

module Set : Set.S with type elt = t
