(** Routing information bases: per-peer Adj-RIB-In tables feeding a
    Loc-RIB through the decision process.

    The structure is mutable; every mutation reports the set of
    best-route changes so a router can push deltas to its
    Adj-RIBs-Out. Peers are identified by opaque string keys chosen by
    the owner (a router uses peer addresses; the PEERING mux uses
    "client/peer" composite keys, one logical table per upstream). *)

open Peering_net

type change = {
  prefix : Prefix.t;
  previous : Route.t option;
  current : Route.t option;
}
(** A best-route transition for one prefix. [previous = None] means the
    prefix is newly reachable, [current = None] newly unreachable. *)

type t

val create : unit -> t

val announce : t -> peer:string -> Route.t -> change option
(** Install (or replace, keyed by path-id) a route from [peer] into its
    Adj-RIB-In, recompute the best route for that prefix, and report
    the change if the Loc-RIB best moved. *)

val withdraw : t -> peer:string -> ?path_id:int -> Prefix.t -> change option
(** Remove the peer's route (with the given path-id, default 0). *)

val drop_peer : t -> peer:string -> change list
(** Remove every route learned from [peer] (session teardown),
    reporting all resulting best-route changes. Clears any stale
    marks for the peer. *)

val mark_stale : t -> peer:string -> int
(** RFC 4724 helper entry: mark every route currently learned from
    [peer] as stale — the routes stay installed and keep forwarding —
    and return how many were marked. A subsequent {!announce} or
    {!withdraw} for a (path, prefix) refreshes it (clears the mark). *)

val sweep_stale : t -> peer:string -> change list
(** RFC 4724 helper exit: withdraw every route still marked stale for
    [peer] (the restarting speaker never re-announced them), reporting
    the resulting best-route changes. *)

val stale_count : t -> peer:string -> int
(** Routes currently marked stale for [peer]. *)

val peers : t -> string list
(** Peers with at least one route, sorted. *)

val best : t -> Prefix.t -> Route.t option
(** Current Loc-RIB entry for an exact prefix. *)

val candidates : t -> Prefix.t -> Route.t list
(** All Adj-RIB-In routes for the prefix, best first. *)

val lookup : t -> Ipv4.t -> Route.t option
(** Longest-prefix match against the Loc-RIB. *)

val fold_best : (Prefix.t -> Route.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the Loc-RIB in address order. *)

val best_routes : t -> (Prefix.t * Route.t) list

val prefix_count : t -> int
(** Number of prefixes in the Loc-RIB. *)

val route_count : t -> int
(** Total routes across all Adj-RIBs-In. *)
