(** BGP route propagation over an AS graph.

    Computes, for one prefix announced by one or more origins (anycast
    and hijack scenarios announce from several), the route every AS
    selects under the Gao–Rexford model: prefer customer routes over
    peer routes over provider routes, then shortest AS path, then
    lowest next-hop ASN.

    Two algorithms compute a table. {!propagate} is the classic
    three-phase work queue for valley-free worlds: customer routes
    climb provider links, cross one peer link, then descend to
    customers. {!repair} is worklist re-selection: it re-selects each
    dirty AS's best offer until every AS is stable, and it takes the
    hooks that break valley-freeness ([leak] edges, export and import
    filters). Because {!better} is a strict total order, the
    valley-free table is the unique stable state, so {!repair} reaches
    {!propagate}'s table from any starting point. It updates a table in
    place after ASes fail or recover, {!update} drives it after an
    announcement changes, and started from {!empty} it builds a leaky
    table from scratch. The differential harness
    ([test/test_propagation_diff.ml]) holds the two algorithms to the
    same tables, with {!repair} run from live tables and from the empty
    one and {!update} run along seeded announcement deltas.

    This engine is what stands in for "the live Internet" reacting to
    PEERING announcements: route injection, selective announcements,
    AS-path poisoning (LIFEGUARD), prefix hijacks, and anycast
    catchments are all expressed as [announcement]s.

    Both engines walk the graph's frozen {!As_graph.dense} view: CSR
    rows of neighbour indices, in ascending ASN order, so every visit
    order is that of {!As_graph.neighbors}. A table is a [route array]
    addressed by AS index, with one shared sentinel standing for "no
    route" and a maintained count of holders; it is tied to the graph
    it was built on. Indices never move as the graph grows, so a table
    built before {!As_graph.add_as} or {!As_graph.add_edge} keeps every
    route, reads [None] for the ASes it does not know, and the next
    {!repair} or {!update} extends it to the view the graph is frozen
    into again. *)

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

    A [deny] that refuses only some announcements (ROV refusing one
    origin of several) can leave an AS on a route its neighbour has
    dropped: the neighbour's new offer is denied, so it never displaces
    the old import. So when [deny] is given, one pass over the table
    finds every AS whose import no longer extends its next hop's
    current route, and {!repair} re-selects from them (recording its
    counters); the result is the unique stable table. Without [deny],
    or with no such AS, there is no repair. *)

val propagate_seq : As_graph.t -> announcement list -> result
(** [propagate] with no option, kept for callers of the old name. *)

val empty : unit -> result
(** A fresh table in which no AS holds a route. {!repair} seeded with
    the origins builds a table from it, and ties it to that graph. *)

val repair :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?leak:(Asn.t -> Asn.t -> bool) ->
  ?export_filter:(Asn.t -> Asn.t -> announcement -> route -> bool) ->
  ?import_filter:(Asn.t -> from:Asn.t -> route -> bool) ->
  down:Asn.Set.t ->
  As_graph.t ->
  announcement list ->
  result ->
  toggled:Asn.Set.t ->
  unit
(** [repair ?deny ?leak ?export_filter ?import_filter ~down graph anns
    prev ~toggled] re-selects routes in [prev], in place, until every
    AS is stable: it holds the best, under {!better}, of its origin
    routes and of the routes its neighbours' current routes export to
    it. [prev] must be stable for the same graph, announcements and
    hooks except at the ASes in [toggled]: their down status flipped,
    or the offers they receive changed. Its old table is gone
    afterwards. From {!empty}, seeded with the origins, it builds a
    table from scratch.

    The hooks: [deny asn ann] refuses an announcement on import, as in
    {!propagate}, origin routes included. [leak u v] makes [u] export
    its route to [v] regardless of Gao–Rexford discipline (an RFC 7908
    leak); [v] still imports it over the real relationship, so a leaked
    route reaching a provider becomes a customer route there and
    spreads. [export_filter u v ann r] = [false] suppresses [u]'s
    export of [r] to [v] (prefix-windowed policies). [import_filter v
    ~from r] lets [v] refuse a neighbour's candidate before [deny] does
    (Peerlock; [r.path] starts with [from]).

    A worklist of dirty ASes, seeded with [toggled] in ascending ASN
    order, re-selects each; when a route changes, only the neighbours
    that routed through it or prefer its new offer are re-selected. The
    cost is proportional to the routes that change and their
    neighbourhoods, not to the table. The worklist is a ring of
    indices, and its "queued" set the view's epoch-stamped mark array
    ({!As_graph.next_epoch}), so a call allocates no set; two calls
    must not run on one view at the same time (from a hook, or from
    two domains). [toggled] may name ASes the graph does not hold:
    each counts as one re-selection and changes nothing.

    [repair] freezes [graph] if it is stale and first extends [prev] to
    the new view: ASes added since [prev] was built hold no route. A
    table that holds a route raises [Invalid_argument] when repaired
    on another graph.

    With no [leak] the stable table is unique, it is the one
    {!propagate} builds, and re-selection reaches it from any starting
    table (DESIGN.md §9, "Incremental repair"). Leak edges can build a
    dispute wheel, in which re-selection never settles, and a leaky
    world can hold more than one stable table (a BGP wedgie), so which
    one [repair] reaches can depend on the starting table. Each call
    stops after a fixed budget of re-selections, a constant multiple of
    [As_graph.n_ases graph], and leaves the table as the budget found
    it; {!settled} then reads [false]. Repairing an unsettled table
    re-selects every AS of the graph.

    Records [topo.propagation.repairs] (one per call) and
    [topo.propagation.reselects] (one per re-selected AS) and none of
    {!propagate}'s counters, so [Testbed.set_down], which repairs,
    ticks neither [topo.propagation.offers] nor
    [topo.propagation.adoptions].

    A route whose [ann_index] lies past the end of [anns] is treated
    as withdrawn: it is never offered to a neighbour and never kept by
    a re-selection. {!update} relies on this when it removes a slot. *)

val settled : result -> bool
(** [false] iff the last {!repair} of the table stopped at its budget
    with ASes still unstable. A table {!propagate} or {!empty} returns
    is settled. *)

val update :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?leak:(Asn.t -> Asn.t -> bool) ->
  down:Asn.Set.t ->
  As_graph.t ->
  before:announcement list ->
  after:announcement list ->
  result ->
  unit
(** [update ?deny ?leak ~down graph ~before ~after prev] turns [prev],
    the stable table for the announcement list [before], in place into
    a stable table for [after]: with no [leak], the table
    [propagate ?deny ~down graph after] would build. [after]
    must be [before] with one of three deltas:
    - some slots replaced (an announcement at index [i] swapped for
      another with the same prefix), the rest equal;
    - one announcement appended;
    - one slot removed, the slots above it shifting down by one.

    Anything else raises [Invalid_argument], as does a replacement that
    changes a slot's prefix. Announcements compare field by field, and
    [export_to] sets by content, each after a physical-equality test:
    a caller that shares untouched slots and unchanged export sets (as
    [Testbed] does) pays nothing per slot for a no-op re-announcement.
    [deny] must give the same verdict to two announcements that differ
    only in [export_to].

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
    list does nothing. Records {!repair}'s counters, and flags the
    table as {!repair} does. *)

val route_at : result -> Asn.t -> route option
(** The route the AS selected, [None] if unreachable or unknown to the
    table (an AS added to the graph after the table was last built or
    repaired). *)

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
    shape Provider* Peer? Customer*. Empty on valley-free tables; after
    {!repair} with [leak] edges it is the leak's blast radius, the
    ground truth the static analysis' taint set must cover. Ascending.
    Unlabelled adjacencies (poisoned suffixes) end each walk. *)
