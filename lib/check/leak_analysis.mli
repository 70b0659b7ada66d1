(** Static leak reachability: an abstract-interpretation fixpoint over
    the per-edge export abstractions of a {!World}.

    The analysis answers, without running propagation: {e which ASes
    can a route reach — and which can it pollute — given the world's
    export overrides?} Per AS it tracks a MAY set of Gao–Rexford
    import classes (union join), a MUST set of Peerlock-tracked ASes
    present on every path (intersection join — Peerlock may only be
    modelled with must-information), and a taint bit set when a
    transfer crosses an edge its learned class is not allowed to cross
    (the RFC 7908 leak moment) and carried with the route thereafter.

    Every abstract transfer over-approximates the concrete oracle
    ({!Peering_topo.Propagation.repair} from the empty table, driven by
    {!World.dynamic_leak}/{!World.dynamic_export}/
    {!World.dynamic_import}): soundness — zero false negatives — is
    the differential property the [@check-diff] harness checks on
    seeded worlds; the false-positive rate is measured there
    (DESIGN.md §11).

    Codes emitted here:
    - [LEAK-EDGE] (error): a directed edge may export beyond
      Gao–Rexford discipline towards a provider or peer, witnessed by
      a prefix outside the exporter's customer cone that its windows
      admit
    - [LEAK-REACH] (warning): per leak-prone edge, the blast radius —
      how many ASes a route leaked there can pollute *)

open Peering_net
open Peering_topo

type verdict = {
  reachable : Asn.Set.t;
      (** ASes that may hold a route for the announcement *)
  tainted : Asn.Set.t;
      (** ASes that may hold it via a Gao–Rexford-violating export —
          a superset of the oracle's {!Peering_topo.Propagation.polluted} *)
}

val analyze : World.t -> Propagation.announcement -> verdict
(** Run the fixpoint for one announcement. Deterministic (sorted seeds
    and neighbor order); records the work-queue pops until the fixpoint
    as [check.leak.fixpoint_iterations]. *)

val edges : World.t -> Diagnostic.t list
(** The [LEAK-EDGE] pass. *)

val reach : World.t -> Diagnostic.t list
(** The [LEAK-REACH] pass: one {!analyze} per leak-prone edge. *)
