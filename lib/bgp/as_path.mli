(** BGP AS_PATH attribute (RFC 4271 §4.3, segments per §5.1.2).

    Paths are lists of segments; an [Seq] segment contributes its
    length to path length, a [Set] segment contributes 1. PEERING's mux
    strips private ASNs from client paths before they reach real peers
    (paper §3), which is {!strip_private} here. *)

open Peering_net

type segment =
  | Seq of Asn.t list  (** AS_SEQUENCE: ordered traversal *)
  | Set of Asn.t list  (** AS_SET: unordered aggregate *)

type t = segment list

val empty : t
(** The empty path (locally originated). *)

val of_asns : Asn.t list -> t
(** [of_asns l] is a single AS_SEQUENCE holding [l] ([empty] if [l]
    is). *)

val to_asns : t -> Asn.t list
(** All ASNs in traversal order (sets flattened in given order). *)

val prepend : Asn.t -> t -> t
(** [prepend a p] adds [a] at the front, extending the leading
    sequence segment or creating one. This is what a router does when
    exporting over eBGP. *)

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

val strip_private : t -> t
(** Remove private ASNs everywhere in the path, dropping segments that
    become empty. This is the mux's "present only the public PEERING
    ASN" operation. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
