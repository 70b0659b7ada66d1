(** Customer cones and AS ranking (CAIDA AS Rank style).

    An AS's customer cone is the set of ASes reachable by following
    only customer links downward — itself, its customers, their
    customers, and so on. The paper ranks ASes by customer-cone size to
    report "we peer with 13 of the 50 largest ASes" (§4.1); peer routes
    a network exports are exactly its cone's prefixes. *)

open Peering_net

val cone : As_graph.t -> Asn.t -> Asn.Set.t
(** The AS's customer cone, including itself. *)

val cone_prefixes : As_graph.t -> Asn.t -> Prefix.Set.t
(** All prefixes originated inside the cone — what the AS exports to
    settlement-free peers. *)

val rank_all : As_graph.t -> (Asn.t * int) list
(** Every AS with its cone size, sorted by decreasing size (ties by
    ascending ASN) — position 0 is the Internet's largest network. *)

val top : As_graph.t -> int -> Asn.t list
(** The [n] largest ASes by customer cone. *)
