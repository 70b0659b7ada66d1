(** BGP AS_PATH attribute (RFC 4271 §4.3, segments per §5.1.2).

    A path is a sequence of segments; an [Seq] segment contributes its
    length to path length, a [Set] segment contributes 1. PEERING's mux
    strips private ASNs from client paths before they reach real peers
    (paper §3), which is {!strip_private} here.

    A path is stored in the 4-octet AS_PATH wire layout (RFC 6793): per
    segment a type byte (1 = AS_SET, 2 = AS_SEQUENCE), a count byte and
    [count] 4-byte big-endian ASNs, in one immutable string. A 3-hop
    path is 14 bytes, 3 heap words. Every accessor reads the bytes in
    place. Since a count byte holds at most 255, a segment of more
    than 255 ASNs is stored as consecutive segments of the same type,
    each of at most 255. *)

open Peering_net

(** The segment view of a path, for building one and for codecs that
    cannot take the packed bytes as they are. *)
type segment =
  | Seq of Asn.t list  (** AS_SEQUENCE: ordered traversal *)
  | Set of Asn.t list  (** AS_SET: unordered aggregate *)

type t

val empty : t
(** The empty path (locally originated). *)

val of_asns : Asn.t list -> t
(** [of_asns l] is one AS_SEQUENCE holding [l] ([empty] if [l] is),
    split into consecutive sequences of at most 255 ASNs. *)

val of_segments : segment list -> t
(** The path of these segments in order, each longer than 255 ASNs
    split into consecutive segments of its type. *)

val segments : t -> segment list
(** The segments in order; [of_segments (segments p)] is [p]. *)

val to_asns : t -> Asn.t list
(** All ASNs in traversal order (sets flattened in given order). *)

val prepend : Asn.t -> t -> t
(** [prepend a p] adds [a] at the front, extending the leading
    sequence segment or creating one when there is none or it already
    holds 255 ASNs. This is what a router does when exporting over
    eBGP. *)

val prepend_n : Asn.t -> int -> t -> t
(** [prepend_n a n p] prepends [a] [n] times (path prepending for
    traffic engineering). *)

val length : t -> int
(** Path length for the decision process: |sequence| + one per set. *)

val mem : Asn.t -> t -> bool
(** Loop detection: does the path already contain this ASN? *)

val origin_asn : t -> Asn.t option
(** The rightmost ASN — the route's originator. [None] for the empty
    path or when the last segment is an empty or set segment whose
    origin is ambiguous (we return the last ASN of a final sequence,
    or [None] for a final set). *)

val neighbor_asn : t -> Asn.t option
(** The leftmost ASN — the AS the route was most recently exported
    by. *)

val compare : t -> t -> int
(** Segment by segment, shorter path first: an AS_SEQUENCE sorts
    before an AS_SET, and segments of one type compare ASN by ASN,
    shorter first. *)

val pp : Format.formatter -> t -> unit

(** {1 Wire form} *)

val to_wire : t -> string
(** The 4-octet AS_PATH attribute body: the stored bytes, no copy. *)

val of_wire :
  bytes -> pos:int -> len:int ->
  (t, [ `Truncated | `Segment_type of int ]) result
(** [of_wire buf ~pos ~len] checks that [buf.[pos .. pos+len)] is a
    4-octet AS_PATH body and copies it. Segments are checked in order;
    in each, a missing count byte or a count that overruns the window
    is [`Truncated], else a type other than 1 or 2 is
    [`Segment_type]. *)
