(** BGP path attributes carried with a route. *)

open Peering_net

type origin = IGP | EGP | INCOMPLETE
(** The ORIGIN attribute (RFC 4271 §5.1.1): how the route entered
    BGP. *)

val origin_rank : origin -> int
(** Decision-process rank: IGP (0) < EGP (1) < INCOMPLETE (2), lower
    preferred. *)

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (Asn.t * Ipv4.t) option;
  communities : Community.t list;  (** kept sorted, duplicate-free *)
}

val make :
  ?origin:origin ->
  ?as_path:As_path.t ->
  ?med:int ->
  ?local_pref:int ->
  ?atomic_aggregate:bool ->
  ?aggregator:Asn.t * Ipv4.t ->
  ?communities:Community.t list ->
  next_hop:Ipv4.t ->
  unit ->
  t
(** Defaults: origin [IGP], empty path, no MED/local-pref, no
    communities. *)

val with_communities : Community.t list -> t -> t
(** Replace the community list (sorted and deduplicated). *)

val add_community : Community.t -> t -> t
(** Add one community, keeping the list sorted and duplicate-free. *)

val has_community : Community.t -> t -> bool
(** Membership test against the sorted community list. *)

val prepend_asn : Asn.t -> t -> t
(** Prepend an ASN to the AS path, as export across an eBGP edge
    does. *)

val with_next_hop : Ipv4.t -> t -> t
(** Replace the next hop (e.g. next-hop-self at the mux). *)

val with_local_pref : int option -> t -> t
(** Set or clear LOCAL_PREF. *)

val with_med : int option -> t -> t
(** Set or clear the MULTI_EXIT_DISC. *)

val equal : t -> t -> bool
(** Structural equality over every field. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering. *)
