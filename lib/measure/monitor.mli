(** The testbed-wide monitoring station: consumes the muxes' BMP feeds
    and rebuilds their state live.

    One station ingests any number of byte feeds (one per mux; see
    [Peering_core.Server.set_bmp_sink]), reassembles BMP frames from
    arbitrarily-fragmented byte pushes, and maintains a per-(mux,
    peer) Adj-RIB-In mirror that must stay {e byte-identical} (Marshal
    digest over the canonical dump) to the live mux table — the
    [@bmp-diff] harness holds that across propagation, scheduler churn
    and chaos drills.  The station keeps only what it rebuilds and
    what its detectors need; the testbed's passive archive is
    [Peering_core.Testbed.collector], filled from the exports.

    On top of reconstruction the station runs four live detectors,
    each armed explicitly so clean runs stay alert-free: MOAS
    ({!watch_moas}), out-of-cone leaks ({!allow_export}), per-prefix
    flap churn ({!watch_flaps}) and reachability dips
    ({!watch_reach}).  Alerts are deduplicated (a given incident fires
    exactly once), recorded here, emitted as typed
    [Peering_obs.Event.Monitor_alert] trace events, and counted in the
    ["measure.monitor.alerts"] metric family.

    Feed health: {!ingest_rate} is the exact per-second rate over the
    last minute of virtual time, and every gap between two consecutive
    ingested messages (across feeds) is observed into the
    ["measure.monitor.feed_gap_s"] histogram as it arrives. *)

open Peering_net
module Bmp = Peering_bgp.Bmp
module Route = Peering_bgp.Route

type t
(** A monitoring station. *)

val create : unit -> t
(** A station with no feeds. *)

(** {1 Feeds} *)

val feed : t -> mux:string -> bytes -> unit
(** [feed t ~mux] used partially — [Server.set_bmp_sink srv (Some
    (Monitor.feed t ~mux:(Server.name srv)))] — is the standard
    wiring.  Bytes may arrive in any fragmentation: partial frames are
    buffered until complete, concatenated frames are all processed. *)

val muxes : t -> string list
(** Muxes that have fed at least one byte, sorted. *)

val messages : t -> int
(** BMP messages successfully ingested across all feeds. *)

val bytes_ingested : t -> int

val parse_errors : t -> int
(** Undecodable frames dropped (the rest of that feed's buffer is
    discarded to resync). *)

val buffered : t -> mux:string -> int
(** Bytes held for [mux] awaiting the rest of a partial frame. *)

val ingest_rate : t -> float
(** Messages whose virtual second lies in the 60 s ending at the newest
    one, divided by 60: the exact rolling rate over the last minute,
    kept in 60 per-second counters. A message with no timestamp of its
    own (Initiation, Termination) counts at the newest feed time.
    [0.] before any message. *)

(** {1 Reconstruction} *)

val mux_up : t -> mux:string -> bool
(** False between a Termination and the next Initiation. *)

val peer_up : t -> mux:string -> peer:Asn.t -> bool
(** Session state per the Peer Up/Down stream; [false] if never up. *)

val adj_rib : t -> mux:string -> peer:Asn.t -> Route.t Prefix.Map.t
(** The reconstructed Adj-RIB-In for one (mux, peer); empty if
    unknown. *)

val route_count : t -> mux:string -> int
(** Reconstructed routes across all of the mux's peers. *)

val reported_routes : t -> mux:string -> peer:Asn.t -> int option
(** The last Stats Report's stat-7 value (routes in Adj-RIB-In), if
    one arrived — cross-checkable against {!adj_rib}'s cardinality. *)

val adj_rib_dump : t -> mux:string -> (int * (Prefix.t * Route.t) list) list
(** The rebuilt tables of [mux] through {!Bmp.adj_rib_dump}, the dump
    the live mux's [Server.rib_digest] hashes too. *)

val rib_digest : t -> mux:string -> string
(** {!Bmp.rib_digest} of {!adj_rib_dump} — must equal the live mux's
    [Server.rib_digest] whenever the feed is fully consumed. *)

(** {1 Detectors}

    All detectors are armed per prefix (or per (mux, peer) cone), so
    ordinary churn — scheduler admits and evictions, chaos recovery —
    never alerts unless a watched invariant actually breaks. *)

val watch_moas : t -> Prefix.t -> origin:Asn.t -> unit
(** Alert ([Moas]) when the prefix is announced with an origin AS
    other than [origin]. *)

val allow_export : t -> mux:string -> peer:Asn.t -> (Prefix.t -> bool) -> unit
(** Register the peer's export cone at a mux.  An announcement of a
    prefix outside the predicate raises [Out_of_cone_leak] (once per
    (mux, peer, prefix)). *)

val watch_flaps : t -> ?window_s:float -> ?limit:int -> Prefix.t -> unit
(** Alert ([Flap_churn]) when the prefix sees [limit] or more
    announce/withdraw events within [window_s] virtual seconds
    (defaults: 8 events in 60 s). *)

val watch_reach : t -> Prefix.t -> floor:int -> unit
(** Alert ([Reach_dip]) when the number of (mux, peer) tables holding
    the prefix, having first reached [floor], falls below it. *)

type alert = {
  a_time : float;  (** feed (virtual) time the detector fired *)
  a_kind : Peering_obs.Event.alert_kind;
  a_mux : string;
  a_prefix : Prefix.t;
  a_detail : string;
}

val alerts : t -> alert list
(** Alerts raised, oldest first. *)
