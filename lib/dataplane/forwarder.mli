(** Hop-by-hop packet forwarding over a node graph.

    Nodes are named; each has addresses, a FIB whose next hops are
    other node names, optional ingress filters, and a delivery handler.
    Packets move one hop per simulated link latency; TTL expiry
    generates ICMP time-exceeded back to the source, which is what
    makes {!Traceroute} work. *)

open Peering_net

type node_id = string

type t

val create : Peering_sim.Engine.t -> t

val add_node : t -> node_id -> unit
(** Idempotent. *)

val add_address : t -> node_id -> Ipv4.t -> unit
(** Attach an address; the first becomes the node's primary (used as
    the source of ICMP it generates). *)

val node_of_address : t -> Ipv4.t -> node_id option

val addresses : t -> node_id -> Ipv4.t list
(** Addresses attached to a node, in attachment order. *)

val primary_address : t -> node_id -> Ipv4.t option
(** First attached address, if any. *)

val get_deliver : t -> node_id -> (Packet.t -> unit) option
(** The node's current delivery handler (for save/restore by
    measurement tools). *)

val set_link_latency : t -> node_id -> node_id -> float -> unit
(** Per-hop latency for this ordered pair (default 0.005 s). *)

val set_route : t -> node_id -> Prefix.t -> node_id Fib.action -> unit
val fib : t -> node_id -> node_id Fib.t

val set_ingress_filter : t -> node_id -> (Packet.t -> bool) -> unit
(** Packets failing the filter are dropped on arrival (spoofing
    control, rate limiting). *)

val on_deliver : t -> node_id -> (Packet.t -> unit) -> unit
(** Handler for packets that reach a [Local] route at this node. A
    node without a handler counts deliveries silently. *)

val inject : t -> at:node_id -> Packet.t -> unit
(** Start forwarding a packet from the given node. *)

(** Statistics, cumulative since creation. *)

val delivered : t -> int
val dropped_ttl : t -> int
val dropped_no_route : t -> int
val dropped_filtered : t -> int
val dropped_blackhole : t -> int
val hops_forwarded : t -> int
