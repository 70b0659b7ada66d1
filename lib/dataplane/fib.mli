(** Forwarding information base: longest-prefix-match table from
    prefixes to forwarding actions. *)

open Peering_net

type 'a action =
  | Local  (** deliver to this node's stack *)
  | Via of 'a  (** forward to a next hop *)
  | Blackhole  (** drop silently *)
  | Unreachable  (** drop with ICMP unreachable *)

type 'a t

val empty : 'a t
val add : Prefix.t -> 'a action -> 'a t -> 'a t
val lookup : Ipv4.t -> 'a t -> 'a action option
(** Longest-prefix match; [None] when no route covers the address. *)

val cardinal : 'a t -> int
val to_list : 'a t -> (Prefix.t * 'a action) list
