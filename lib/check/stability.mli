(** Stability analysis: does the world satisfy the Gao–Rexford
    convergence conditions?

    BGP converges on any topology when (a) the provider digraph is
    acyclic (checked by {!Graph_checks}) and (b) every AS strictly
    prefers customer-learned routes over peer/provider-learned ones.
    These passes flag violations of (b):

    - [STAB-PREF] (warning): a session where a non-customer's routes
      are imported at or above the AS's customer local-pref level.
    - [STAB-WHEEL] (error): a strongly connected component (>= 2 ASes)
      of such risky sessions — the skeleton of a dispute wheel
      (Griffin–Shepherd–Wilfong), the structure that lets BGP
      oscillate forever.

    With the class-default preferences ({!World.default_local_pref})
    nothing fires; only explicit [local-pref] overrides (or
    {!World.set_import_policy}) create risky edges. *)

open Peering_net

val risky_edges :
  World.t -> (Asn.t * Asn.t * Peering_topo.Relationship.t * int * int) list
(** [(v, u, rel, pref, floor)]: [v] imports from non-customer [u]
    (relationship [rel]) at local-pref [pref >= floor], where [floor]
    is the lowest preference [v] gives any customer session. Ascending
    by [(v, u)]. *)

val prefer_non_customer : World.t -> Diagnostic.t list
(** The [STAB-PREF] pass. *)

val wheels : World.t -> Diagnostic.t list
(** The [STAB-WHEEL] pass: Tarjan SCC over the risky digraph. *)
