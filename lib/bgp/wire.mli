(** Binary encoding of BGP messages (RFC 4271), with 4-octet ASNs
    (RFC 6793) and ADD-PATH prefixes (RFC 7911).

    Whether ASNs occupy 2 or 4 bytes and whether NLRI carry path
    identifiers is session state negotiated via OPEN capabilities, so
    both directions of the codec take explicit {!session_opts}.

    {!decode} is the one decoder: it validates the 19-byte header, then
    materializes a {!Message.t} in a single pass, reading UPDATE
    sections in wire order (withdrawn routes, path attributes, NLRI).
    The first malformed span decides the returned [error]. *)

open Peering_net

type session_opts = {
  four_octet_asn : bool;  (** encode ASNs on 4 bytes in AS_PATH etc. *)
  add_path : bool;  (** prefixes carry a 4-byte path identifier *)
}

val default_opts : session_opts
(** 2-byte ASNs, no ADD-PATH — what a pre-negotiation decoder assumes
    (OPEN messages themselves never depend on the options). *)

(** Everything that can go wrong decoding a frame.  The fault
    injector's corrupt-frame path relies on these exact values; see
    [docs/WIRE.md] for the spec-side map. *)
type error =
  | Truncated  (** ran off the end of the buffer or a length field *)
  | Bad_marker  (** the 16-byte marker is not all [0xFF] *)
  | Bad_length of int  (** header length outside [19, 4096], or a
                           KEEPALIVE that is not exactly 19 bytes *)
  | Bad_type of int  (** unknown message type code *)
  | Bad_version of int  (** OPEN with a version other than 4 *)
  | Bad_attribute of string  (** malformed path-attribute section *)
  | Bad_capability of string  (** malformed OPEN capability *)

val error_to_string : error -> string
(** Human-readable rendering used in NOTIFICATION reasons and logs. *)

exception Error of error
(** Raised by {!Cursor} reads that run out of bounds and by the
    internal parsers; caught at every public [result]-returning
    boundary. *)

(** Bounds-checked read window over a shared byte buffer.  A cursor
    never copies: slices alias the parent buffer, and every read is
    checked against the window's limit, raising {!Error}[ Truncated]
    on overrun.  Every decoder in this module reads bytes only through
    a cursor, so no malformed frame can read past its window. *)
module Cursor : sig
  type t
  (** A mutable position within a fixed window of a byte buffer. *)

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t
  (** [of_bytes ?pos ?len buf] is a cursor over [buf.[pos .. pos+len)];
      [pos] defaults to 0 and [len] to the rest of the buffer.  Raises
      [Invalid_argument] if the window lies outside [buf]. *)

  val pos : t -> int
  (** Current absolute offset in the underlying buffer. *)

  val remaining : t -> int
  (** Bytes left before the window's limit. *)

  val u8 : t -> int
  (** Read one byte, big-endian like all BGP fields. *)

  val u16 : t -> int
  (** Read a 2-byte big-endian unsigned integer. *)

  val u32 : t -> int
  (** Read a 4-byte big-endian unsigned integer. *)

  val skip : t -> int -> unit
  (** Advance past [n] bytes without reading them. *)

  val slice : t -> int -> t
  (** [slice c n] is a sub-cursor over the next [n] bytes, sharing the
      buffer (no copy); [c] advances past them. *)

  val rest : t -> bytes
  (** Copy of the bytes from the current position to the limit — the
      one copying escape hatch, for callers that need to retain data
      beyond the buffer's lifetime. *)
end

(** {1 Encoding} *)

val encode : session_opts -> Message.t -> bytes
(** Serialise a message, including the 19-byte header. *)

val encode_attrs : ?with_next_hop:bool -> session_opts -> Attrs.t -> bytes
(** Serialise just a path-attribute section (no framing), in canonical
    ascending attribute-code order.  [~with_next_hop:false] omits the
    NEXT_HOP attribute — MRT [RIB_IPV6_UNICAST] entries carry
    reachability in an abbreviated MP_REACH_NLRI instead
    (RFC 6396 §4.3.4). *)

val encode_prefix : Buffer.t -> Prefix.t -> unit
(** Append one NLRI-encoded prefix (length byte + minimal address
    bytes), without an ADD-PATH identifier — the shape MRT RIB records
    use. *)

(** {1 Decoding} *)

val decode : session_opts -> bytes -> pos:int -> (Message.t * int, error) result
(** [decode opts buf ~pos] parses one message starting at [pos];
    returns the message and the position one past its end.  For
    [0 <= pos <= Bytes.length buf] it never raises: a corrupt or
    truncated frame is an [Error]. *)

val decode_exn : session_opts -> bytes -> Message.t
(** Decode a buffer holding exactly one message; raises [Failure] on
    any error or trailing bytes. Convenience for tests. *)

val decode_attrs :
  ?require_next_hop:bool ->
  session_opts ->
  Cursor.t ->
  (Attrs.t option, error) result
(** Parse a bare path-attribute section from a cursor (the MRT entry
    point).  Returns [None] when the section contains only optional
    attributes (legal for MP-only UPDATEs).  With
    [~require_next_hop:false], a section with ORIGIN and AS_PATH but
    no NEXT_HOP decodes with next hop [0.0.0.0] instead of failing —
    the MRT [RIB_IPV6_UNICAST] case. *)

val read_prefix : Cursor.t -> Prefix.t
(** Read one NLRI-encoded prefix (no ADD-PATH identifier); raises
    {!Error}.  Inverse of {!encode_prefix}. *)
