(** MRT routing-information export (RFC 6396): the standard format
    RouteViews and RIPE RIS use for RIB dumps and update traces — the
    feeds a real PEERING mux drinks from.

    Supported records: TABLE_DUMP_V2 [PEER_INDEX_TABLE],
    [RIB_IPV4_UNICAST] and [RIB_IPV6_UNICAST] (type 13, subtypes
    1/2/4) and BGP4MP [BGP4MP_MESSAGE] / [BGP4MP_MESSAGE_AS4]
    (type 16, subtypes 1/4).  The writer is canonical — 4-byte-AS peer
    entries, attribute sections in ascending code order via
    {!Peering_bgp.Wire.put_attrs}, every record written into the
    dump's one buffer — so for dumps this module
    produced, decode ∘ encode is the identity byte-for-byte; the
    [@mrt-roundtrip] alias enforces that over seeded worlds.  The
    reader additionally accepts the 2-byte-AS forms RFC 6396 allows.

    Generators build RouteViews-style dumps from synthetic {!Gen}
    worlds (deterministic in the seed), and {!load} replays a dump
    into a mux-style {!Peering_bgp.Rib}. *)

open Peering_net
open Peering_bgp
open Peering_topo

(** Everything that can go wrong reading a dump. *)
type error =
  | Truncated  (** record header or body ran off the buffer *)
  | Bad_record of string  (** unsupported type/subtype or malformed body *)
  | Bad_message of Wire.error  (** an embedded BGP payload or attribute
                                   section failed to parse *)

val error_to_string : error -> string
(** Human-readable rendering for CLI errors and logs. *)

(** A peer address in a [PEER_INDEX_TABLE] entry or BGP4MP header. *)
type peer_addr =
  | V4 of Ipv4.t  (** an IPv4 peer *)
  | V6 of Ipv6.t  (** an IPv6 peer *)

(** One [PEER_INDEX_TABLE] entry; RIB entries refer to peers by index
    into this table. *)
type peer = {
  bgp_id : Ipv4.t;  (** the peer's BGP identifier *)
  addr : peer_addr;  (** the peer's session address *)
  asn : Asn.t;  (** the peer's AS number *)
}

(** One route in a RIB record: who advertised it, when, with what
    attributes. *)
type rib_entry = {
  peer_index : int;  (** index into the peer table *)
  originated : int;  (** UNIX time the route was first learned *)
  attrs : Attrs.t;  (** path attributes, decoded with 4-byte ASNs *)
  next_hop6 : Ipv6.t option;
      (** v6 next hop from the abbreviated MP_REACH_NLRI
          (RFC 6396 §4.3.4); [None] for v4 entries, whose next hop is
          in [attrs] *)
}

(** The supported MRT record bodies. *)
type record =
  | Peer_index_table of {
      collector_id : Ipv4.t;  (** the collector's BGP identifier *)
      view_name : string;  (** optional view name, often empty *)
      peers : peer array;  (** the peer table RIB entries index into *)
    }  (** TABLE_DUMP_V2 subtype 1 — must precede RIB records *)
  | Rib_v4 of {
      seq : int;  (** record sequence number *)
      prefix : Prefix.t;  (** the announced v4 prefix *)
      entries : rib_entry list;  (** one entry per advertising peer *)
    }  (** TABLE_DUMP_V2 subtype 2, [RIB_IPV4_UNICAST] *)
  | Rib_v6 of {
      seq : int;  (** record sequence number *)
      prefix : Prefix6.t;  (** the announced v6 prefix *)
      entries : rib_entry list;  (** one entry per advertising peer *)
    }  (** TABLE_DUMP_V2 subtype 4, [RIB_IPV6_UNICAST] *)
  | Bgp4mp of {
      peer_asn : Asn.t;  (** the peer that sent the message *)
      local_asn : Asn.t;  (** the collector's AS *)
      ifindex : int;  (** interface index, 0 when unknown *)
      peer_ip : peer_addr;  (** peer session address *)
      local_ip : peer_addr;  (** collector session address (same
                                 family as [peer_ip]) *)
      as4 : bool;  (** [true] for [BGP4MP_MESSAGE_AS4]: 4-byte ASNs in
                       this header and in the payload's attributes *)
      payload : bytes;  (** the verbatim BGP message, 19-byte header
                            included *)
    }  (** BGP4MP subtypes 1/4 — one captured BGP message *)

(** One timestamped MRT record. *)
type t = {
  timestamp : int;  (** UNIX seconds from the record header *)
  record : record;  (** the decoded body *)
}

(** {1 Wire codec} *)

val encode_record : Buffer.t -> t -> unit
(** Append one record (header + body) to a buffer. *)

val encode : t list -> bytes
(** Serialise a whole dump. *)

val decode : bytes -> pos:int -> (t * int, error) result
(** [decode buf ~pos] parses one record starting at [pos]; returns it
    and the position one past its end.  Strict: the body must parse
    exactly to the header's length. *)

val fold : bytes -> init:'a -> f:('a -> t -> 'a) -> ('a, error) result
(** Stream every record in the buffer through [f] without retaining
    them — the 1M-prefix bench path. *)

val read_all : bytes -> (t list, error) result
(** Materialize every record in order. *)

(** {1 Summary} *)

(** Per-dump record and entry counts, as printed by [mrt info]. *)
type summary = {
  n_records : int;  (** total records *)
  n_peer_index : int;  (** peer index tables *)
  n_rib4 : int;  (** RIB_IPV4_UNICAST records *)
  n_rib6 : int;  (** RIB_IPV6_UNICAST records *)
  n_bgp4mp : int;  (** BGP4MP message records *)
  n_peers : int;  (** peer-table entries *)
  n_entries : int;  (** RIB entries across all records *)
  n_bytes : int;  (** size of the dump *)
}

val summarize : bytes -> (summary, error) result
(** One full decoding pass over a dump, counting as it goes. *)

val pp_summary : Format.formatter -> summary -> unit
(** Render a summary as an aligned table. *)

(** {1 Generators} *)

val base_time : int
(** The fixed timestamp every generated record carries
    (2014-09-01T00:00:00Z — the paper's era).  Dumps never read the
    host clock, which is what makes them byte-identical across runs. *)

val make_peers : n:int -> peer array
(** [n] synthetic v4 collector peers on ASNs 64500+, for a peer table
    without a world: perfbench's [table_load] workload builds its
    dump over them. *)

val table_of_world :
  ?seed:int -> ?peers:int -> Gen.world -> t list
(** A full RIB dump of the world: a peer index table, one
    [RIB_IPV4_UNICAST] record per prefix in the graph (ascending AS
    order), and one [RIB_IPV6_UNICAST] /48 per tier-1.  Each prefix
    gets 2 entries from rotating peers
    with synthetic-but-plausible AS paths drawn from [seed]'s RNG
    stream. *)

val updates_of_world : ?seed:int -> ?limit:int -> Gen.world -> t list
(** A BGP4MP update stream from the first collector peer: an announcement
    per prefix, with every 16th prefix flapping (announce then
    withdraw).  [limit] caps the prefix count. *)

(** {1 Replay} *)

(** The result of replaying a dump into a mux-style table. *)
type load = {
  rib : Rib.t;  (** the filled table: per-peer Adj-RIBs-In + Loc-RIB *)
  peers : peer array;  (** the dump's peer table *)
  records : int;  (** records processed *)
  routes4 : int;  (** v4 RIB entries installed *)
  entries6 : int;  (** v6 RIB entries parsed (the mux RIB is v4-only) *)
  updates : int;  (** BGP4MP messages decoded and applied *)
}

val load : bytes -> (load, error) result
(** Replay a dump: RIB entries become Adj-RIB-In routes keyed by peer
    index, BGP4MP UPDATE payloads are decoded by {!Wire.decode} and
    applied as announces/withdraws.  Fails on a RIB entry whose peer
    index is outside the peer table. *)
