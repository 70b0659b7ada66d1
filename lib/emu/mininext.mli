(** MinineXt-style intradomain emulation (paper §3 and §4.2).

    Builds an emulated AS out of lightweight "containers": one
    {!Peering_router.Router} per PoP, joined by unit-cost intradomain
    links. The builder wires an iBGP full mesh (with next-hop-self),
    runs an SPF IGP over the link topology, and installs the combined
    routing state into per-PoP dataplane FIBs, so both routes and
    traffic flow between the emulated AS and whatever it is connected
    to — e.g. a PEERING server at an IXP, as in the paper's Hurricane
    Electric experiment. *)

open Peering_net
open Peering_router
open Peering_dataplane

type t
type pop

val create :
  Peering_sim.Engine.t ->
  Forwarder.t ->
  name:string ->
  asn:Asn.t ->
  unit ->
  t
(** An empty emulation sharing the given dataplane. *)

val add_pop : t -> ?country:Country.t -> string -> pop
(** Add a PoP: allocates a loopback, creates its router "container"
    and its forwarder node. Raises [Invalid_argument] on duplicate
    names or after {!start}. *)

val link : t -> string -> string -> unit
(** Connect two PoPs with an intradomain link: one IGP hop, latency
    5 ms. *)

val of_topology :
  Peering_sim.Engine.t ->
  Forwarder.t ->
  asn:Asn.t ->
  Peering_topo.Topology_zoo.t ->
  t
(** Instantiate a Topology Zoo backbone: one PoP per zoo node (named
    by city), one link per zoo edge. *)

val start : t -> unit
(** Build the iBGP full mesh between all PoPs and start the sessions.
    Drive the engine afterwards to let sessions establish and routes
    propagate, then call {!sync_fibs}. Idempotent. *)

val pop_exn : t -> string -> pop
val pops : t -> pop list
val pop_name : pop -> string
val router : pop -> Router.t
val loopback : pop -> Ipv4.t
val node_id : pop -> Forwarder.node_id
(** The PoP's dataplane node. *)

val originate_at : t -> string -> Prefix.t -> unit
(** Originate a prefix from the named PoP: a local BGP route that
    propagates through the mesh (and out of any external sessions the
    caller attached to the PoP routers), plus a Local FIB entry. *)

val external_gateway :
  t -> pop:string -> peer_addr:Ipv4.t -> node:Forwarder.node_id -> unit
(** Declare that external BGP next hop [peer_addr] seen at [pop] is
    reached through the given forwarder node (e.g. a PEERING server's
    tunnel endpoint). Needed by {!sync_fibs} to resolve
    externally-learned routes at the border PoP. *)

val sync_fibs : t -> unit
(** Recompute every PoP's FIB from the IGP (loopback /32s) and the
    BGP Loc-RIBs (best routes, next hops resolved through the IGP or
    external gateways). Call after the control plane settles or after
    topology changes. *)

val n_pops : t -> int
val n_ibgp_sessions : t -> int

val ibgp_sessions : t -> (string * string * Peering_bgp.Session.t) list
(** The mesh's sessions as [(pop_a, pop_b, session)], in mesh build
    order — the handles a fault injector registers to partition or
    impair the emulated backbone. Empty before {!start}. *)

val routes_at : t -> string -> int
(** Loc-RIB size of the PoP's router. *)

val memory_words : t -> int
(** Sum of [Obj.reachable_words] over all PoP routers' RIBs — the
    emulation-scaling measurement of §4.2. *)

val container_model_bytes : t -> int
(** Modelled resident memory: MinineXt container overhead plus router
    table model, per PoP. *)
