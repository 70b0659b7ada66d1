(** Synthetic popular-web workload for the §4.1 Alexa experiment.

    Models the 2014 web: a ranked list of top sites, each homepage
    pulling ~100 embedded resources; resources concentrate on a few
    thousand distinct FQDNs, which in turn concentrate on CDN and
    cloud networks (the paper cites YouTube+Netflix alone at 47% of
    North American traffic). Hosting addresses are real prefixes of
    the generated Internet, so reachability can be evaluated against
    peer routes. *)

open Peering_net

type site = {
  rank : int;  (** 1-based Alexa-style rank *)
  fqdn : string;
  addr : Ipv4.t;  (** homepage A record *)
  resources : string list;  (** embedded-resource FQDNs (with repeats) *)
}

type t = { sites : site list; dns : Dns.t }

type params = {
  n_sites : int;  (** 500 *)
  mean_resources : float;  (** ~100 per page *)
  n_resource_fqdns : int;  (** pool of distinct resource hosts, ~4200 *)
  cdn_share : float;
      (** probability a resource FQDN is hosted on a Content-kind AS *)
  site_cdn_share : float;
      (** same for site homepages — lower: homepages sit on origin
          infrastructure more often than embedded resources do *)
}

val generate :
  ?params:params ->
  rng:Peering_sim.Rng.t ->
  Peering_topo.Gen.world ->
  t
(** Build the workload over a generated Internet. Every FQDN resolves
    in [dns] to an address inside a prefix its hosting AS originates. *)

val total_resources : t -> int
val distinct_resource_fqdns : t -> string list
val distinct_resource_addrs : t -> Ipv4.t list
