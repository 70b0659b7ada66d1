(** Valley-free BGP route propagation over an AS graph.

    Computes, for one prefix announced by one or more origins (anycast
    and hijack scenarios announce from several), the route every AS
    selects under the Gao–Rexford model: prefer customer routes over
    peer routes over provider routes, then shortest AS path, then
    lowest next-hop ASN. Propagation follows the classic three phases —
    customer routes climb provider links, cross one peer link, then
    descend to customers.

    {!propagate} computes the table with a three-phase work queue.
    Because {!better} is a strict total order, the valley-free table
    is the unique stable state, so {!repair} — a worklist that
    re-selects each dirty AS's best offer — reaches the same table from
    any starting point. It updates a table in place after ASes fail or
    recover, and {!update} drives it after an announcement changes,
    touching only what changes. The differential harness
    ([test/test_propagation_diff.ml]) holds the algorithms to the same
    tables, with {!repair} run from live tables and from the empty one
    and {!update} run along seeded announcement deltas.
    {!propagate_general} drops the phase structure for worlds that are
    not valley-free.

    This engine is what stands in for "the live Internet" reacting to
    PEERING announcements: route injection, selective announcements,
    AS-path poisoning (LIFEGUARD), prefix hijacks, and anycast
    catchments are all expressed as [announcement]s. *)

open Peering_net

type announcement = {
  origin : Asn.t;  (** the AS injecting the route *)
  prefix : Prefix.t;
  path_suffix : Asn.t list;
      (** fake path appended after the origin; poisoning inserts ASNs
          here so they self-loop-reject the route *)
  export_to : Asn.Set.t option;
      (** when [Some s], the origin announces only to neighbors in
          [s] — PEERING's selective-announcement control. [None] =
          export to all neighbors (subject to Gao–Rexford). *)
}

val announce :
  ?path_suffix:Asn.t list ->
  ?export_to:Asn.Set.t ->
  Asn.t ->
  Prefix.t ->
  announcement

type route = {
  learned_over : Relationship.t option;
      (** relationship class the route was imported over;
          [None] = this AS originates it *)
  path : Asn.t list;
      (** AS path excluding self: next hop first, then onwards to the
          origin, then any poisoned suffix *)
  ann_index : int;  (** which announcement this route derives from *)
}

val class_pref : Relationship.t option -> int
(** Gao–Rexford preference class: origin 3 > customer 2 > peer 1 >
    provider 0. Exposed so tests can check the total-order laws of
    {!better}. *)

val better : route -> route -> bool
(** [better a b] iff [a] is strictly preferred over [b]: higher
    {!class_pref}, then shorter path, then lexicographically lowest
    AS path (which subsumes "lowest next-hop ASN"), then lower
    announcement index. A strict total order on route content — any
    two distinct candidates compare strictly one way. Comparing the
    full path before the announcement index makes a neighbor's
    re-exported candidates monotonically improving, so stale imports
    are always displaced and the valley-free fixpoint is unique: the
    property that makes {!propagate}'s result independent of its
    queue order and lets {!repair} converge to the same table. *)

type result

val propagate :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?down:Asn.Set.t ->
  ?domains:int ->
  ?visit:(Asn.t -> unit) ->
  As_graph.t ->
  announcement list ->
  result
(** Run valley-free propagation: the three-phase work queue (customer
    routes climb provider edges to a fixpoint, cross one peer edge,
    then descend customer edges to a fixpoint). [deny asn ann] lets an
    AS refuse a specific announcement on import (modelling filters);
    ASes in [down] neither import nor export anything (modelling
    failures). Announcements must all carry the same prefix or
    covering/covered prefixes; each is propagated independently and
    ASes pick their single best.

    Work queues are seeded in ascending ASN order, so the visit order
    is a function of the inputs alone, not of hash-table layout.
    [visit] is a test hook called on every AS dequeued in phases 1 and
    3, in order. [domains] is accepted and ignored: the engine runs on
    the calling domain, and the argument remains only for callers that
    still pass it. Records [topo.propagation.offers] (one per
    candidate reaching an up, loop-free importer, before [deny]) and
    [topo.propagation.adoptions] (one per table write, origins
    excluded).

    Known defect: an AS keeps a route a neighbour has dropped when it
    [deny]s the announcement that neighbour switched to, because the
    neighbour's new offer never displaces the old import. A [deny]
    that looks at the announcement (ROV refusing one origin of several)
    can therefore leave stale routes that {!repair} and {!update},
    which re-select from the neighbours' current routes, do not keep.
    A [deny] that refuses every announcement at an AS is exact. See
    ROADMAP.md. *)

val propagate_seq :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?down:Asn.Set.t ->
  ?domains:int ->
  ?visit:(Asn.t -> unit) ->
  As_graph.t ->
  announcement list ->
  result
(** An alias of {!propagate}, kept for callers of the old name. *)

val propagate_general :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?down:Asn.Set.t ->
  ?leak:(Asn.t -> Asn.t -> bool) ->
  ?export_filter:(Asn.t -> Asn.t -> announcement -> route -> bool) ->
  ?import_filter:(Asn.t -> from:Asn.t -> route -> bool) ->
  As_graph.t ->
  announcement list ->
  result
(** A single work-queue fixpoint with no phase structure, for worlds
    that are {e not} valley-free. [leak u v] marks the directed edge
    [u -> v] as leaking: [u] exports its route to [v] regardless of
    Gao–Rexford export discipline (RFC 7908 route leaks), while [v]
    still imports it over the real relationship — a leaked route
    arriving at a provider classifies as a customer route and
    re-exports everywhere, which is exactly why leaks spread.
    [export_filter u v ann r] refines exports further (return [false]
    to suppress — prefix-windowed export policies); [import_filter v
    ~from r] lets the importer reject a candidate (Peerlock-style
    filters; [r.path] starts with [from]). Terminates because adoption
    is strictly improving under {!better}.

    Known defect: an AS adopts an offer only when it beats its current
    route, and a neighbour that switches routes never withdraws the
    one it exported before, so an AS can keep a route its neighbour
    has dropped. The result therefore does {e not} equal
    {!propagate}'s table even on valley-free inputs: with AS4 peering
    with origin AS1, AS3 a customer of AS4, origin AS2 a customer of
    AS3 and AS5 a customer of AS4, AS5 keeps [[AS4 AS1]] while AS4
    holds [[AS3 AS2]]. See ROADMAP.md.
    Deterministic: the work queue is seeded in ascending ASN order and
    neighbors are visited in ascending ASN order. This engine is the
    dynamic oracle the static leak analysis is differentially tested
    against ([test/test_check_diff.ml], alias [@check-diff]). *)

val repair :
  ?deny:(Asn.t -> announcement -> bool) ->
  down:Asn.Set.t ->
  As_graph.t ->
  announcement list ->
  result ->
  toggled:Asn.Set.t ->
  unit
(** [repair ?deny ~down graph anns prev ~toggled] turns [prev], in
    place, into the table [propagate ?deny ~down graph anns] would
    build, without rebuilding it. [prev] must be the valley-free table
    for the same graph, announcements and [deny] under a down set that
    differs from [down] exactly on (a subset of) [toggled]. Its old
    table is gone afterwards.

    A worklist of dirty ASes, seeded with [toggled] in ascending ASN
    order, re-selects each AS's best origin route or importable
    neighbour offer (the export rules of {!propagate}); when a route
    changes, only the neighbours that routed through it or prefer its
    new offer are re-selected. The cost is proportional to the routes
    that change and their neighbourhoods, not to the table. Exact
    because the valley-free table is the unique stable state and, with
    no provider cycle in [graph], re-selection converges to it from any
    starting table (DESIGN.md §9, "Incremental repair"); it does {e
    not} hold for the leaking worlds of {!propagate_general}.

    Records [topo.propagation.repairs] (one per call) and
    [topo.propagation.reselects] (one per re-selected AS) and none of
    {!propagate}'s counters, so [Testbed.set_down], which repairs
    instead of re-propagating while no leak is active, ticks neither
    [topo.propagation.offers] nor [topo.propagation.adoptions].

    A route whose [ann_index] lies past the end of [anns] is treated
    as withdrawn: it is never offered to a neighbour and never kept by
    a re-selection. {!update} relies on this when it removes a slot. *)

val update :
  ?deny:(Asn.t -> announcement -> bool) ->
  down:Asn.Set.t ->
  As_graph.t ->
  before:announcement list ->
  after:announcement list ->
  result ->
  unit
(** [update ?deny ~down graph ~before ~after prev] turns [prev], the
    valley-free table for the announcement list [before], in place into
    the table [propagate ?deny ~down graph after] would build. [after]
    must be [before] with one of three deltas:
    - some slots replaced (an announcement at index [i] swapped for
      another with the same prefix), the rest equal;
    - one announcement appended;
    - one slot removed, the slots above it shifting down by one.

    Anything else raises [Invalid_argument], as does a replacement that
    changes a slot's prefix. Announcements compare field by field, and
    [export_to] sets by content. [deny] must give the same verdict to
    two announcements that differ only in [export_to].

    It runs {!repair} seeded with the ASes the delta can unsettle: for
    a replaced slot, the old and new origins plus, when [export_to]
    changed, the symmetric difference of the old and new export sets
    ([None] standing for all of the origin's neighbours); for an
    appended announcement, its origin; for a removed slot, its origin,
    after one pass over the table moves the removed slot's routes past
    the end of [after] (withdrawn, see {!repair}) and shifts the
    indices above it down. Every other AS is still stable: a changed
    origin route or suffix changes every path derived from the slot,
    so [repair]'s notify cascade re-selects every holder and every
    neighbour the new offers reach, and [better] compares [ann_index]
    only between equal paths, which meet only at their common origin.
    The cost is proportional to the routes that change (plus the table
    for a removal below the last slot), not to the table. An unchanged
    list does nothing. Records {!repair}'s counters. *)

val route_at : result -> Asn.t -> route option
(** The route the AS selected, [None] if unreachable. *)

val path_at : result -> Asn.t -> Asn.t list option

val full_path : result -> Asn.t -> Asn.t list option
(** [full_path r asn] is [asn :: path], i.e. the forwarding AS-level
    path starting at [asn], for ASes with a route. *)

val table : result -> (Asn.t * route) list
(** The full adopted table, ascending by ASN — the unit of comparison
    for the differential harness and the bench's byte-identity check. *)

val reachable : result -> Asn.t list
(** ASes holding a route, ascending. *)

val reachable_count : result -> int

val catchment : result -> (int * int) list
(** For multi-origin announcements: [(ann_index, count)] pairs giving
    how many ASes selected a route derived from each announcement
    (anycast catchment / hijack impact), ascending by index. ASes with
    no route are not counted. *)

val routes_via : result -> Asn.t -> Asn.t list
(** ASes whose selected path traverses the given AS (inclusive of
    next-hop position, exclusive of themselves). Useful for
    interception experiments. *)

val polluted : As_graph.t -> result -> Asn.t list
(** ASes whose selected route crossed a Gao–Rexford-violating export —
    the class word of the full path read self→origin leaves the legal
    shape Provider* Peer? Customer*. Empty on tables produced by the
    valley-free engines; after {!propagate_general} with [leak] edges
    it is the leak's blast radius, the ground truth the static
    analysis' taint set must cover. Ascending. Unlabelled adjacencies
    (poisoned suffixes) end each walk. *)
