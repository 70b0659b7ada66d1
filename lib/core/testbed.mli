(** The whole PEERING testbed in one value: a generated Internet, the
    PEERING AS deployed at IXP and university sites, servers, the
    controller, safety, and a route collector.

    Each site is modelled as its own node in the AS graph (muxes are
    topologically distinct even though they share AS 47065), so
    anycast catchments and per-site announcements behave correctly.
    {!path_from} and the route collector fold the per-site ASNs back
    into the public one. *)

open Peering_net
open Peering_topo
open Peering_ixp

val peering_asn : Asn.t
(** AS 47065. *)

type params = {
  world : Gen.params;
  seed : int;
  university_sites : (string * int) list;
      (** (site name, #upstream transit providers) — the paper's
          "dozens of indirect providers through universities" *)
  domains : int option;
      (** accepted and ignored: propagation runs on the calling
          domain. Kept only for callers that still set it. *)
}

val default_params : params
(** Default world, sites gatech01/usc01/ufmg01 with 2 providers each.
    Every testbed also has an AMS-IX site (its route-server users, and
    the members that accept a bilateral peering request) and a
    Phoenix-IX site, so the world needs at least 669 ASes. *)

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
(** Every export lands here: one call per export, counting its target
    peers as pairs. *)

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
    {!Propagation.table}. The result may be shared with other prefixes,
    so read it and never repair or update it yourself.

    A table depends on a prefix's announcements only through its
    shape: per slot, in slot order, the origin, the path suffix, the
    export set and whether ROV finds the origin invalid. With no leak
    active, the prefixes of one shape hold one table, the shape's
    unique stable table (DESIGN.md §9, "Shared tables"). A prefix
    whose list changes to a shape a live table holds joins that table
    with no repair; one that leaves a shared table for a new shape
    takes a {!Propagation.copy} and updates it; a first announcement
    joins its shape's table if one is live. Under leak edges a stable
    table need not be unique, so no prefix joins another's table while
    a leak is active, and once the leaks clear the tables of one shape
    merge again.

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

val rebuilt_for : t -> Prefix.t -> Propagation.result option
(** The table a from-scratch build gives the prefix under the current
    announcements, down set, leak edges and ROV: the phased
    {!Propagation.propagate} table, then {!Propagation.repair} from the
    ends of the leak edges, as the prefix's first announcement builds
    it. The live table is left alone. With no leak active it equals the
    repaired {!result_for}, which is what the tests hold it to. *)

val announcements : t -> Prefix.t -> Propagation.announcement list
(** The prefix's announcement list, one slot per source ([[]] when the
    prefix is not announced): a route's [ann_index] indexes it. *)

val route_from : t -> Asn.t -> Prefix.t -> Propagation.route option
val reach_count : t -> Prefix.t -> int

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

    Every distinct table is repaired once, in place, with
    {!Propagation.repair}, under the active leaks and ROV, in time
    proportional to the routes that change and their neighbourhoods
    rather than to the table: the cost is one repair per distinct
    shape, not per prefix, and so it is for {!set_leak_edges},
    {!set_rov}, {!clear_rov} and {!add_remote_ixp}. With no leak active
    the result equals a full re-propagation. *)

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
    announcements whose origin is [Invalid] against the ROA table —
    the substrate for the secure-BGP partial-deployment study of §2.
    It replaces any earlier ROA table and adopter set. Every active
    prefix's table is repaired in place with {!Propagation.repair},
    seeded with the old and new adopters whose verdict on one of its
    announcements flips: no other AS's choices change. The holders of
    one table whose new verdicts differ (a ROA that covers some of
    them) split first, each further group taking a copy. *)

val clear_rov : t -> unit
(** Turn ROV off, repairing every table as {!set_rov} does. *)

val ingress_site : t -> from_asn:Asn.t -> Prefix.t -> string option
(** Which PEERING site traffic from the AS enters for this prefix —
    the anycast-catchment question. [None] when the AS routes to a
    non-PEERING origin (e.g. a hijacker) or has no route. *)

val add_remote_ixp : t -> via:string -> Fabric.t
(** Remote peering (paper §3: "Hibernia Networks offered us virtualized
    layer 2 connectivity from our AMS-IX server to tens of IXPs around
    the world"): build a new IXP fabric and peer the existing [via]
    site's server with its route-server users over the virtual L2 —
    more peers with no new physical deployment. Members already peered
    with that server are skipped. A new edge hands new offers only to
    its two ends, so every active prefix's table is repaired in place
    with {!Propagation.repair}, seeded with the site node and the new
    peers, on the graph frozen again with the new edges. Returns the
    new fabric. *)

val feed_peer_routes : t -> site:string -> int
(** Make the site's server "learn" its peers' routes (each peer
    exports the first 20 prefixes of its customer cone) and relay them
    to connected clients. Returns the number of routes fed. *)
