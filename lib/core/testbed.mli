(** The whole PEERING testbed in one value: a generated Internet, the
    PEERING AS deployed at IXP and university sites, servers, the
    controller, safety, and a route collector.

    Each site is modelled as its own node in the AS graph (muxes are
    topologically distinct even though they share AS 47065), so
    anycast catchments and per-site announcements behave correctly;
    {!canonical_path} folds the per-site ASNs back into the public
    one for display. *)

open Peering_net
open Peering_topo
open Peering_ixp

val peering_asn : Asn.t
(** AS 47065. *)

val peering_supply : Prefix.t
(** 184.164.224.0/19 — the testbed's address space. *)

type params = {
  world : Gen.params;
  seed : int;
  university_sites : (string * int) list;
      (** (site name, #upstream transit providers) — the paper's
          "dozens of indirect providers through universities" *)
  with_amsix : bool;
  with_phoenix : bool;
  bilateral_requests : bool;
      (** send peering requests to all open non-RS AMS-IX members *)
  domains : int option;
      (** accepted and ignored: propagation runs on the calling
          domain. Kept only for callers that still set it. *)
}

val default_params : params
(** Default world, sites gatech01/usc01/ufmg01 with 2 providers each,
    AMS-IX and Phoenix-IX enabled, bilateral requests on. *)

type site

val site_name : site -> string
val site_server : site -> Server.t
val site_asn : site -> Asn.t
(** The per-site graph node's ASN. *)

type t

val build : ?params:params -> unit -> t

val engine : t -> Peering_sim.Engine.t
val world : t -> Gen.world
val graph : t -> As_graph.t
val controller : t -> Controller.t
val safety : t -> Safety.t
val collector : t -> Peering_measure.Collector.t
val sites : t -> site list
val site : t -> string -> site option
val site_exn : t -> string -> site

val all_peers : t -> Asn.t list
(** Union of all sites' upstream peer/provider ASNs (deduplicated). *)

val peers_at : t -> string -> Asn.t list

val new_experiment :
  t ->
  id:string ->
  ?owner:string ->
  ?description:string ->
  ?n_prefixes:int ->
  ?may_poison:bool ->
  unit ->
  (Experiment.t, string) result
(** Propose + activate in one step. *)

val connect_client : t -> Client.t -> sites:string list -> unit

(** {2 Control plane} *)

val result_for : t -> Prefix.t -> Propagation.result option
(** Latest propagation result for an announced prefix. The testbed owns
    the result, and {!set_down} and every announcement change repair it
    in place, so it reflects the testbed's state when it is read, not
    when it was fetched: read it right away, or snapshot it with
    {!Propagation.table}.

    Each prefix holds one announcement list, with one slot per source:
    a (site, client) export or an {!inject_external} origin. A route's
    [ann_index] names its slot. A source keeps its slot while it stays
    active: a re-export (a re-announce, or a mux restart re-issuing its
    announcements) replaces the entry in place, a new source appends
    one, and a withdraw removes the source's slot, shifting the later
    slots down by one. Each change is repaired with
    {!Propagation.update}, in time proportional to the routes that
    change; the first announcement of a prefix builds its table with
    {!Propagation.propagate} (then {!Propagation.repair} from the ends
    of any leak edges), and the last withdraw drops it. *)

val announcements : t -> Prefix.t -> Propagation.announcement list
(** The prefix's announcement list, one slot per source ([[]] when the
    prefix is not announced): a route's [ann_index] indexes it. *)

val route_from : t -> Asn.t -> Prefix.t -> Propagation.route option
val reach_count : t -> Prefix.t -> int

val canonical_path : t -> Asn.t list -> Asn.t list
(** Fold per-site ASNs into the public PEERING ASN. *)

val path_from : t -> Asn.t -> Prefix.t -> Asn.t list option
(** Canonicalised full AS path from the given AS to the prefix. *)

val inject_external :
  t ->
  origin:Asn.t ->
  ?path_suffix:Asn.t list ->
  Prefix.t ->
  unit
(** Inject an announcement from an arbitrary AS of the simulated
    Internet — a hijacker, a MOAS sibling, an ARROW-style helper.
    Bypasses safety (it is not a PEERING client). *)

val retract_external : t -> origin:Asn.t -> Prefix.t -> unit

val set_down : t -> Asn.t -> bool -> unit
(** Fail / restore an AS. Site nodes are toggled automatically by each
    mux's status hook ({!Server.crash} / {!Server.restart}), so a dead
    PoP really disappears from the simulated Internet.

    Every active prefix's table is repaired in place with
    {!Propagation.repair}, under the active leaks and ROV, in time
    proportional to the routes that change and their neighbourhoods
    rather than to the table. With no leak active the result equals a
    full re-propagation. *)

val set_leak_edges : t -> (Asn.t * Asn.t) list -> unit
(** Inject (or, with [[]], clear) RFC 7908 route leaks: each [(u, v)]
    makes [u] export its selected routes to [v] regardless of
    Gao–Rexford discipline. Every table is repaired in place with
    {!Propagation.repair}, seeded with the ends of the old and the new
    edges, and {!Propagation.polluted} then reads the leak's blast
    radius — the substrate of the chaos campaign's leak-storm drill. A
    leaky world can hold more than one stable table, so the one
    reached can depend on the table the leak started from; check
    {!Propagation.settled} on each. Clearing the leaks repairs back to
    the valley-free table. *)

val leak_edges : t -> (Asn.t * Asn.t) list
(** Currently-injected leak edges, in injection order. *)

val set_rov :
  t -> roas:Peering_bgp.Rpki.t -> adopters:Asn.Set.t -> unit
(** Enable RPKI route-origin validation at the [adopters]: they refuse
    announcements whose origin is [Invalid] against the ROA table.
    All active prefixes re-propagate — the substrate for the secure-
    BGP partial-deployment study of §2. *)

val clear_rov : t -> unit

val ingress_site : t -> from_asn:Asn.t -> Prefix.t -> string option
(** Which PEERING site traffic from the AS enters for this prefix —
    the anycast-catchment question. [None] when the AS routes to a
    non-PEERING origin (e.g. a hijacker) or has no route. *)

val add_remote_ixp : t -> via:string -> name:string -> Fabric.t
(** Remote peering (paper §3: "Hibernia Networks offered us virtualized
    layer 2 connectivity from our AMS-IX server to tens of IXPs around
    the world"): build a new IXP fabric and peer the existing [via]
    site's server with its route-server users over the virtual L2 —
    more peers with no new physical deployment. Members already peered
    with that server are skipped. The new edges change the graph, so
    all active prefixes re-propagate. Returns the new fabric. *)

val feed_peer_routes : t -> site:string -> ?max_per_peer:int -> unit -> int

val start_monitoring :
  t ->
  ?vantages:Asn.t list ->
  interval:float ->
  rounds:int ->
  unit ->
  unit
(** Automatic measurement collection (§3: "we also automatically
    collect regular control and data plane measurements towards
    PEERING prefixes"): every [interval] virtual seconds, for [rounds]
    rounds, record the AS path each vantage AS currently uses toward
    every active prefix into the {!collector}. Default vantages: 16
    stubs sampled deterministically. Drive the engine to execute. *)

val monitoring_rounds_completed : t -> int
(** Make the site's server "learn" its peers' routes (each peer
    exports its customer cone, truncated to [max_per_peer], default
    200) and relay them to connected clients. Returns the number of
    routes fed. *)
