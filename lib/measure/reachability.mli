(** Peer-route reachability analysis (§4.1).

    "Which destinations can we reach via peerings?" A settlement-free
    peer exports its customer cone, so the peer-learned table at an
    IXP is the union of what the peers export of their cones. This
    module materialises that table and answers the paper's counting
    questions. *)

open Peering_net

type t

val peer_routes : Peering_topo.Gen.world -> peers:Asn.t list -> t
(** The table of prefixes learned from the given peers (union of their
    exported customer-cone prefixes, LPM-indexed).

    Transit peers export only part of their customer cone — the
    dominant behaviour at real route servers, where customers opt in
    to multilateral propagation: tier-1/large transit export ~35% of
    cone prefixes, small transit ~70%; every peer always exports its
    own prefixes, and stubs and content networks export everything
    (content networks want the inbound traffic). The per-(peer,
    prefix) decision is a deterministic hash, so repeated calls and
    {!routes_per_peer} agree. *)

val n_prefixes : t -> int

val covers_addr : t -> Ipv4.t -> bool
(** Longest-prefix-match test: is there a peer route for this
    address? *)

val fraction_of_internet : t -> Peering_topo.Gen.world -> float
(** Peer-route prefixes over all prefixes in the world. *)

val peers_in_top : Peering_topo.Gen.world -> peers:Asn.t list -> int -> int
(** How many of the top-[n] ASes (by customer cone) are in [peers]. *)

val peer_countries : Peering_topo.Gen.world -> peers:Asn.t list -> Country.Set.t

val routes_per_peer :
  Peering_topo.Gen.world -> peers:Asn.t list -> (Asn.t * int) list
(** Per-peer count of exported prefixes (cone prefixes, after the same
    export model), descending — reproduces "only our 5
    largest peers give us more than 10K routes, and 307 give us fewer
    than 100 routes". *)
