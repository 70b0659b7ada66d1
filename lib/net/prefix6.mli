(** IPv6 CIDR prefixes, as the MRT codec carries them. *)

type t = private { addr : Ipv6.t; len : int }

val make : Ipv6.t -> int -> t
(** Host bits cleared; [0 <= len <= 128]. *)

val addr : t -> Ipv6.t
val len : t -> int
