(** IPv6 addresses, as the MRT codec carries them in [RIB_IPV6_UNICAST]
    records and BGP4MP peer headers.

    The paper lists IPv6 support among PEERING's planned extensions
    ("we also plan to add support for IPv6", §3); the testbed routes
    IPv4 only, so this module is just the 128-bit value. *)

type t = private { hi : int64; lo : int64 }
(** 128 bits, network byte order: [hi] holds bits 0–63. *)

val make : int64 -> int64 -> t
