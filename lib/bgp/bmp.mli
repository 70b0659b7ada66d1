(** BGP Monitoring Protocol (RFC 7854) framing, the mux export side of
    the live telemetry plane.

    The subset implemented is what a PEERING mux emits: Route
    Monitoring (type 0) carrying one embedded BGP UPDATE PDU, Stats
    Reports (type 1), Peer Down (type 2, reason code only), Peer Up
    (type 3, two embedded OPEN PDUs), and Initiation / Termination
    (types 4 / 5) information TLVs.  All peers are global-instance
    IPv4 peers with a zero distinguisher; embedded PDUs always use
    4-octet ASNs and no ADD-PATH ({!pdu_opts}).

    The codec has one canonical encoder, {!encode}, which writes the
    common header, the per-peer header and any embedded PDU
    ({!Wire.put_message}) into one buffer sized up front, and one
    decoder, {!decode}, which reads the BMP framing through
    {!Wire.Cursor} and hands embedded PDUs to {!Wire.decode}.  An
    independent reference reader of the framing, with its own copy of
    every check, lives in test code ([test/bmp_reference.ml]); the
    [@mrt-roundtrip] alias's BMP corruption corpus requires the two to
    agree on every input, including the [error] value for corrupt
    frames.  The buffer-per-section encoder {!encode} replaced lives
    on in [test/wire_reference.ml], and test_bgp requires the same
    bytes from both. *)

open Peering_net

(** The 42-byte per-peer header carried by peer-scoped messages.
    Timestamps are seconds + microseconds on the wire, so arbitrary
    virtual-clock floats are truncated to µs precision; {!canon_time}
    applies the same truncation to a raw float, which is how RIB
    digests on the live and reconstructed sides are compared. *)
type peer_header = {
  peer_addr : Ipv4.t;  (** IPv4-mapped into the 16-byte address field *)
  peer_asn : Asn.t;
  peer_bgp_id : Ipv4.t;
  stamp_s : int;  (** timestamp, whole seconds *)
  stamp_us : int;  (** timestamp, microseconds, [0 .. 999_999] *)
}

val make_peer_header :
  addr:Ipv4.t -> asn:Asn.t -> ?bgp_id:Ipv4.t -> time:float -> unit ->
  peer_header
(** Build a header; [time] (virtual seconds) is split into
    [stamp_s]/[stamp_us], rounding to the nearest microsecond.
    [bgp_id] defaults to [addr]. *)

val time : peer_header -> float
(** The header's timestamp as seconds, [stamp_s + stamp_us / 1e6]. *)

val canon_time : float -> float
(** [time (make_peer_header ~time …)]: a float timestamp truncated to
    what the wire can carry.  Idempotent. *)

val adj_rib_dump :
  (int * Route.t Prefix.Map.t) list -> (int * (Prefix.t * Route.t) list) list
(** The canonical Adj-RIB-In dump of [(peer ASN, table)] pairs given in
    any order: empty tables dropped (a withdraw-only peer leaves one
    behind), bindings in prefix order, [learned_at] put through
    {!canon_time}, peers sorted by ASN.  The live mux and the
    monitoring station both dump through it, so equal RIBs give equal
    dumps. *)

val rib_digest : (int * (Prefix.t * Route.t) list) list -> string
(** Hex MD5 of an {!adj_rib_dump} marshalled without sharing. *)

type stat = { stat_type : int; stat_value : int }
(** One Stats Report TLV.  Types 7 and 8 (Adj-RIB-In / Loc-RIB route
    counts) are 64-bit gauges on the wire; every other type is a
    32-bit counter (RFC 7854 §4.8). *)

val stat_routes_adj_rib_in : int
(** Stat type 7: routes in Adj-RIB-In. *)

(** One BMP message.  Constructor order follows the wire type codes
    0–5. *)
type msg =
  | Route_monitoring of { peer : peer_header; update : Message.update }
      (** type 0: a route change, as an embedded BGP UPDATE PDU *)
  | Stats_report of { peer : peer_header; stats : stat list }
      (** type 1 *)
  | Peer_down of { peer : peer_header; reason : int }
      (** type 2; this subset carries the reason code only, never a
          trailing NOTIFICATION PDU or FSM code *)
  | Peer_up of {
      peer : peer_header;
      local_addr : Ipv4.t;
      local_port : int;
      remote_port : int;
      sent_open : Message.open_msg;
      recv_open : Message.open_msg;
    }  (** type 3: session came up, with both OPEN PDUs *)
  | Initiation of { info : (int * string) list }
      (** type 4: (TLV type, value) pairs; 2 = sysName, 1 = sysDescr,
          0 = free-form string *)
  | Termination of { info : (int * string) list }
      (** type 5: same TLV shape as {!Initiation} *)

val msg_type : msg -> int
(** The wire type code, 0–5. *)

val peer_of : msg -> peer_header option
(** The per-peer header, for the four peer-scoped message types. *)

(** Decode errors. *)
type error =
  | Truncated  (** buffer ends before the header-declared length *)
  | Bad_version of int  (** first byte is not 3 *)
  | Bad_type of int  (** message type outside 0–5 *)
  | Bad_length of int  (** header length below 6 or above the cap *)
  | Bad_peer_header of string  (** malformed 42-byte per-peer header *)
  | Bad_msg of string  (** malformed body (bad TLV, trailing bytes, …) *)
  | Bad_payload of Wire.error  (** embedded BGP PDU failed to parse *)

val error_to_string : error -> string
(** Human-readable rendering for logs and test failures. *)

val encode : msg -> bytes
(** Serialise one message, 6-byte common header included.  Output is
    canonical: [decode] of an [encode] returns the same [msg], and
    re-encoding is byte-identical. *)

val decode : ?stop:int -> bytes -> pos:int -> (msg * int, error) result
(** [decode buf ~pos] parses one message starting at [pos]; returns
    the message and the position one past its end.  [Error Truncated]
    is returned both for a short common header and for a body the
    buffer cannot satisfy, so feed reassembly can treat it as "wait for more bytes".  The buffer
    is taken to end at [stop] (default: its length): a frame whose
    common header or declared length runs past [stop] is [Truncated],
    so a reassembly buffer with spare room past [stop] needs no copy. *)
