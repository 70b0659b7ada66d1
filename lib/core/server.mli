(** A PEERING server ("mux").

    The server holds the real BGP sessions with upstream transit
    providers and IXP peers, but deliberately runs {e no} route
    selection: every route from every peer is relayed to every hosted
    client, and each client independently decides what to announce,
    to which peers, and which routes to use (paper §3). The server's
    jobs are relaying, bookkeeping, and safety.

    Two session-multiplexing models are supported, matching the
    paper's Quagga-vs-BIRD discussion: [Per_peer_sessions] gives each
    client one BGP session per upstream peer (Quagga, current
    deployment), while [Add_path_mux] multiplexes all peers' routes
    over a single ADD-PATH session per client (planned BIRD
    deployment). The relayed state is identical; {!session_stats}
    exposes the cost difference (ablation A2). *)

open Peering_net
open Peering_bgp

type mux_mode = Per_peer_sessions | Add_path_mux

(** What the server asks the outside world to do — the testbed wires
    this into the simulated Internet. *)
type export_event =
  | Export_announce of {
      client : string;
      prefix : Prefix.t;
      path_suffix : Asn.t list;  (** sanitized; after the PEERING ASN *)
      peers : Asn.Set.t;  (** which upstream peers receive it *)
    }
  | Export_withdraw of { client : string; prefix : Prefix.t }

type client_callbacks = {
  route_update : peer:Asn.t -> Route.t -> unit;
  route_withdraw : peer:Asn.t -> Prefix.t -> unit;
}

type t

val create :
  Peering_sim.Engine.t ->
  name:string ->
  asn:Asn.t ->
  safety:Safety.t ->
  ?mux:mux_mode ->
  export:(export_event -> unit) ->
  unit ->
  t

val name : t -> string

val add_peer : t -> Asn.t -> unit
(** Register an upstream peer, at an address derived from the ASN.
    Duplicates raise [Invalid_argument]. *)

val peer_asns : t -> Asn.t list
(** In the order the peers were added. *)

val connect_client :
  t -> experiment:Experiment.t -> ?callbacks:client_callbacks -> string -> unit
(** Attach a client by id. Current peer-learned routes are replayed to
    it immediately. *)

val disconnect_client : t -> string -> unit
(** Withdraw everything the client announced and drop it. *)

val announce :
  t ->
  client:string ->
  ?peers:Asn.t list ->
  ?path_suffix:Asn.t list ->
  Prefix.t ->
  (unit, Safety.reason) result
(** Announce a prefix on behalf of the client. [peers] restricts which
    upstream peers hear it (default: all); [path_suffix] carries
    prepending/poisoning/emulated-domain ASNs (private ASNs are
    stripped before export). Everything passes through {!Safety}. *)

val withdraw : t -> client:string -> Prefix.t -> unit
(** Withdraw the client's announcement of a prefix, if it has one.
    Also while the mux is crashed: the announcement is dropped, its
    safety claim released and the withdraw exported, so {!restart}
    does not re-issue it. *)

val learn_route : t -> peer:Asn.t -> path:Asn.t list -> Prefix.t -> unit
(** The testbed feeds routes the server hears from an upstream peer;
    they are relayed (per-peer, unselected) to every client. *)

val withdraw_learned : t -> peer:Asn.t -> Prefix.t -> unit

val learned_route_count : t -> int
(** Routes held across every peer's table, from per-peer live counts
    (O(peers), not O(routes)). *)

val is_up : t -> bool
(** False between {!crash} and {!restart}. *)

val crash : t -> unit
(** Fault injection: the mux's BGP process dies. Learned routes are
    lost, {!announce} returns [Mux_down], and upstream learn/withdraw
    traffic is ignored until {!restart}. Client registrations and the
    safety registry survive (they live in the controller). *)

val restart : t -> unit
(** Bring a crashed mux back: records the downtime histogram and
    re-issues every client's surviving announcements (failover) so
    upstream Adj-RIBs-Out resynchronize without client involvement.
    Re-exports run under [core.server.export] spans (site, client and
    prefix attributes), so when a fault injector crashes the mux the
    recovery traffic lands in the fault's causal trace. Peer-learned
    routes must be re-fed by the testbed. *)

val set_status_hook : t -> (bool -> unit) option -> unit
(** Install an observer called with [false] on {!crash} and [true] on
    {!restart} (before failover re-exports). The testbed uses it to
    mark the mux's site unreachable in the simulated Internet while
    the BGP process is down. *)

val set_bmp_sink : t -> (bytes -> unit) option -> unit
(** Attach (or detach) the live telemetry feed: every session and
    Adj-RIB-In change is pushed to the sink as one encoded
    {!Peering_bgp.Bmp} message.  On attach the server state-syncs like
    a BMP speaker greeting a station (RFC 7854 §3.3) — Initiation,
    Peer Up per peer, the current Adj-RIB-In as Route Monitoring, a
    Stats Report per peer — so attachment order doesn't affect what
    the station reconstructs.  Thereafter: {!learn_route} emits a
    Route Monitoring announce stamped with the route's [learned_at],
    {!withdraw_learned} a withdraw, {!crash} a Peer Down (reason 2)
    per peer plus Termination, {!restart} a fresh Initiation and Peer
    Ups, and every 100th table change a Stats Report.  The sink takes
    bytes, not messages, so consumers (lib/measure) need no dependency
    on this module. *)

val emit_bmp_stats : t -> unit
(** Push one Stats Report per peer (stat 7, routes in Adj-RIB-In) to
    the BMP sink now.  No-op while crashed or with no sink. *)

val rib_digest : t -> string
(** {!Peering_bgp.Bmp.rib_digest} of the canonical Adj-RIB-In snapshot
    ({!Peering_bgp.Bmp.adj_rib_dump}: peers sorted by ASN, empty
    tables dropped, [learned_at] truncated to the microsecond the BMP
    wire carries) — the live side of the [@bmp-diff] byte-identity
    check. *)

type session_stats = {
  mode : mux_mode;
  n_peers : int;
  n_clients : int;
  peer_sessions : int;  (** server <-> upstream sessions *)
  client_sessions : int;  (** server <-> client sessions *)
  total_sessions : int;
  est_memory_bytes : int;  (** session state, modelled *)
  keepalives_per_hour : int;
}

val session_stats : t -> session_stats
(** The A2 ablation's measurement: session counts and their cost under
    the current {!mux_mode}. *)
