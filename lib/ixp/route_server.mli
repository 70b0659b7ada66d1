(** An IXP route server: a central point for multilateral peering.

    Members announce routes to the server; the server redistributes
    them to every other connected member {e transparently} — it does
    not insert its own ASN into the path. Members steer redistribution
    with the conventional route-server communities:

    - [0:target] — do not announce this route to [target];
    - [0:0] — do not announce to anyone (combine with [rs_asn:target]
      to whitelist);
    - [rs_asn:target] — do announce to [target] (overrides [0:0]).

    Connecting to the server is how PEERING "instantly obtained
    peering with hundreds of ASes" (§4.1). *)

open Peering_net
open Peering_bgp

type t

val create : ?asn:Asn.t -> unit -> t
(** [asn] is the server's own AS number, used in whitelist communities
    (default 6777 — AMS-IX's). *)

val asn : t -> Asn.t

val connect : t -> Asn.t -> unit
(** Attach a member. Idempotent. *)

val disconnect : t -> Asn.t -> (Asn.t * Prefix.t) list
(** Detach a member; returns the withdrawals the server sends to the
    other members ([(to_member, prefix)]). *)

val members : t -> Asn.t list
val n_members : t -> int

val announce : t -> from:Asn.t -> Route.t -> (Asn.t * Route.t) list
(** Redistribute a member's announcement; returns the deliveries the
    server performs ([(to_member, route)]), after community-based
    export control. The route-server control communities themselves are
    scrubbed from redistributed routes. A re-announcement whose
    communities now block a member retracts that member's earlier copy
    of [from]'s route (no longer in {!routes_for}, and not sent a later
    {!withdraw}); the return value still lists deliveries only. Raises
    [Invalid_argument] if [from] is not connected. *)

val withdraw : t -> from:Asn.t -> Prefix.t -> (Asn.t * Prefix.t) list
(** Withdraw a member's route; returns the withdrawals delivered to
    members that had received it.  Routes other members announced for
    the same prefix stay where they were delivered. *)

val routes_for : t -> Asn.t -> Route.t list
(** Routes the member currently holds from the server, one per
    (prefix, origin member), in prefix order. *)

val route_count : t -> int
(** Total routes retained across all member tables. *)
