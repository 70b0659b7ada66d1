(** Simulated IP packets. *)

open Peering_net

type proto =
  | Udp of { sport : int; dport : int }
  | Tcp of { sport : int; dport : int }
  | Icmp of icmp

and icmp =
  | Ttl_exceeded of { original_dst : Ipv4.t; original_id : int }
  | Dest_unreachable of { original_dst : Ipv4.t; original_id : int }

type t = {
  id : int;
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
  proto : proto;
  size : int;  (** bytes, for rate limiting / accounting *)
}

val make : ?ttl:int -> ?size:int -> ?proto:proto -> src:Ipv4.t -> dst:Ipv4.t -> unit -> t
(** Fresh packet with a unique id. Defaults: ttl 64, size 64 bytes,
    UDP 33434→33434 (traceroute-style). *)

val decrement_ttl : t -> t option
(** [None] when the TTL would reach zero. *)

val pp : Format.formatter -> t -> unit
