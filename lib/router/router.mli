(** A software BGP router in the style of Quagga's bgpd: named
    neighbors with import/export policies, locally originated
    networks, a full RIB, and correct eBGP/iBGP export behaviour.

    Routers are the workhorse of the testbed: emulated intradomain
    PoPs (§4.2), PEERING clients, and the memory benchmark (Fig. 2)
    all instantiate this module. Two routers are joined with
    {!connect}, which runs a real {!Peering_bgp.Session} (RFC 4271
    bytes on the wire) between them. *)

open Peering_net
open Peering_bgp

type t

val create :
  Peering_sim.Engine.t ->
  asn:Asn.t ->
  router_id:Ipv4.t ->
  ?hold_time:int ->
  ?mrai:float ->
  ?graceful_restart:int ->
  unit ->
  t
(** [mrai] (seconds, default 0 = disabled) enforces a minimum
    route-advertisement interval per neighbor: best-route changes
    inside the window are held and flushed together when it expires —
    the batching behind BGP's delayed-convergence dynamics (RFC 4271
    §9.2.1.1).

    [graceful_restart] (seconds) advertises the RFC 4724 capability on
    every session this router initiates. When both sides advertise it,
    each acts as a helper for the other: on session loss the peer's
    routes are retained (marked stale) for the peer's advertised
    restart time, and withdrawn only if the session does not come back
    and resynchronize in time. *)

val asn : t -> Asn.t
val rib : t -> Rib.t

val originate : t -> ?communities:Community.t list -> Prefix.t -> unit
(** Originate a network: install a local route and advertise it to all
    established neighbors. The next hop is the router id. *)

val withdraw_network : t -> Prefix.t -> unit

val networks : t -> Prefix.t list

type neighbor

val neighbors : t -> neighbor list

val set_import_policy : t -> Ipv4.t -> Policy.t -> unit
(** Set the import route-map for the neighbor at this address.
    Default: permit all. *)

val set_export_policy : t -> Ipv4.t -> Policy.t -> unit

val connect :
  Peering_sim.Engine.t ->
  ?auto_restart:bool ->
  t * Ipv4.t ->
  t * Ipv4.t ->
  Session.t
(** [connect engine (r1, addr1) (r2, addr2)] registers each router as
    the other's neighbor (eBGP if ASNs differ, iBGP otherwise), builds
    the session with {!Session.create}'s default latency, and starts
    it. Run the engine to establish; on
    establishment each side sends its full table subject to export
    policy. [auto_restart] (default false) makes both FSMs reconnect
    after non-administrative closes with jittered exponential
    backoff. *)

val best_route : t -> Prefix.t -> Route.t option
val table_size : t -> int
(** Loc-RIB prefix count. *)

val advertised_to : t -> Ipv4.t -> Prefix.t list
(** Adj-RIB-Out contents for the neighbor, address order. *)

val updates_received : t -> int
val updates_sent : t -> int
