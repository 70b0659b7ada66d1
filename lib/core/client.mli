(** The researcher-side client.

    A client connects to one or more PEERING servers and behaves like
    the experiment's own border router: it receives every upstream
    peer's routes (not just a selected best), keeps them in its own
    RIB, runs its own decision process, and announces or withdraws
    prefixes with per-peer control. "Ignoring" peers lets an
    experiment emulate an arbitrary interdomain topology out of the
    real one (paper §3). *)

open Peering_net
open Peering_bgp

type t

val create : id:string -> experiment:Experiment.t -> unit -> t

val id : t -> string
val experiment : t -> Experiment.t

val connect : t -> Server.t -> unit
(** Attach to a server; its peers' routes start flowing into the
    client RIB keyed by (server, peer). *)

val disconnect : t -> Server.t -> unit
val servers : t -> string list

val ignore_peer : t -> server:string -> peer:Asn.t -> unit
(** Drop current and future routes from this peer — topology
    emulation by peer selection. *)

val unignore_peer : t -> server:string -> peer:Asn.t -> unit

val announce :
  t ->
  ?servers:string list ->
  ?peers:Asn.t list ->
  ?path_suffix:Asn.t list ->
  Prefix.t ->
  (string * (unit, Safety.reason) result) list
(** Announce via the named servers (default: all connected), returning
    the per-server outcome. *)

val withdraw : t -> ?servers:string list -> Prefix.t -> unit

val rib : t -> Rib.t
val candidates : t -> Prefix.t -> Route.t list
(** All routes for the prefix across servers and peers, best first. *)

val best : t -> Prefix.t -> Route.t option
val route_count : t -> int
val prefix_count : t -> int
