(** The AS-level Internet graph: ASes with metadata and
    relationship-labelled edges, plus prefix origination. *)

open Peering_net

type kind =
  | Tier1
  | Large_transit
  | Small_transit
  | Stub
  | Content  (** CDN / cloud / content provider *)
  | Enterprise

val kind_to_string : kind -> string

type node = {
  asn : Asn.t;
  name : string;
  country : Country.t;
  kind : kind;
}

type t

val create : unit -> t

val add_as :
  t -> ?name:string -> ?country:Country.t -> ?kind:kind -> Asn.t -> unit
(** Register an AS. Defaults: name ["ASn"], country [Country.nl],
    kind [Stub]. Re-adding an existing ASN raises [Invalid_argument]. *)

val add_edge : t -> Asn.t -> Relationship.t -> Asn.t -> unit
(** [add_edge g a rel b] links [a] and [b]; [rel] is [b]'s role from
    [a]'s perspective ([Customer] = [b] is [a]'s customer). The
    inverse edge is added automatically. Both ASes must exist;
    duplicate edges raise [Invalid_argument]. *)

val originate : t -> Asn.t -> Prefix.t -> unit
(** Record that the AS originates the prefix. *)

val mem : t -> Asn.t -> bool
val node : t -> Asn.t -> node option
val node_exn : t -> Asn.t -> node

val neighbors : t -> Asn.t -> (Asn.t * Relationship.t) list
(** All neighbors with their relationship from this AS's perspective,
    in ascending ASN order. *)

val relationship : t -> Asn.t -> Asn.t -> Relationship.t option
(** [relationship g a b] is [b]'s role from [a]'s perspective. *)

val customers : t -> Asn.t -> Asn.t list
val providers : t -> Asn.t -> Asn.t list
val peers_of : t -> Asn.t -> Asn.t list

val prefixes_of : t -> Asn.t -> Prefix.t list
(** Prefixes originated by this AS, in address order. *)

val origin_of : t -> Prefix.t -> Asn.t option
(** The AS originating exactly this prefix, if any. *)

val ases : t -> Asn.t list
(** All ASNs, ascending. *)

val n_ases : t -> int
val n_edges : t -> int
val n_prefixes : t -> int

val iter_prefixes : (Asn.t -> Prefix.t -> unit) -> t -> unit
