(** Protocol-level interdomain simulation: one real
    {!Peering_router.Router} per AS, eBGP sessions on every graph
    edge, Gao–Rexford economics expressed as import/export policies.

    This is the slow, faithful counterpart of {!Propagation}: routes
    converge by actual BGP message exchange (wire-encoded UPDATEs,
    session FSMs, timers) instead of graph traversal. It only scales
    to tens-to-hundreds of ASes, which is exactly what makes it useful:

    - cross-validation — on any topology both engines must agree on
      reachability and path lengths (tested by property tests);
    - convergence dynamics — path hunting, MRAI effects and update
      counts are visible here and invisible to the algorithmic engine. *)

open Peering_net

type t

val build :
  Peering_sim.Engine.t ->
  ?mrai:float ->
  As_graph.t ->
  t
(** Instantiate routers and sessions for every AS and edge of the
    graph; Gao–Rexford policies are installed from the edge labels
    (customer routes local-pref 300, peers 200, providers 100; exports
    filtered valley-free). [mrai] throttles per-neighbor advertisement
    bursts (default none). Drive the engine to let sessions
    establish. *)

val start : t -> unit
(** Originate every AS's prefixes (from the graph) and let them
    propagate. Call after sessions establish; drive the engine to
    converge. *)

val originate : t -> Asn.t -> Prefix.t -> unit
val withdraw : t -> Asn.t -> Prefix.t -> unit

val as_path_at : t -> Asn.t -> Prefix.t -> Asn.t list option
(** The AS path the router selected (most recent hop first). *)

val reachable_count : t -> Prefix.t -> int
(** Routers holding a route for the prefix (including the
    originator). *)

val total_updates : t -> int
(** Sum of UPDATE messages received by all routers — the convergence
    cost measure of the Labovitz-style experiments. *)

val converged :
  t -> Peering_sim.Engine.t -> ?step:float -> ?timeout:float -> unit -> bool
(** Drive the engine in [step]-second slices (default 1.0) until the
    control plane quiesces (no UPDATE received for three consecutive
    steps) or [timeout] virtual seconds pass (default 600). Returns
    [false] on timeout. *)
