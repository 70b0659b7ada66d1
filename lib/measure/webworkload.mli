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
  addr : Ipv4.t;  (** homepage address *)
  resources : string list;  (** embedded-resource FQDNs (with repeats) *)
}

type t = { sites : site list; dns : Dns.t }

val generate : rng:Peering_sim.Rng.t -> Peering_topo.Gen.world -> t
(** Build the workload over a generated Internet: 500 sites with ~100
    embedded resources per page, drawn from a pool of 4,200 resource
    FQDNs. Half of the resource FQDNs and 18% of the homepages are
    hosted on Content-kind ASes (homepages sit on origin
    infrastructure more often than embedded resources do). Every
    resource FQDN resolves in [dns] to an address inside a prefix its
    hosting AS originates. *)

val total_resources : t -> int
val distinct_resource_fqdns : t -> string list
val distinct_resource_addrs : t -> Ipv4.t list
