(** The AS-level Internet graph: ASes with metadata and
    relationship-labelled edges, plus prefix origination.

    The graph is built by mutation ({!add_as}, {!add_edge}) and read
    through a frozen {!dense} view: every AS gets an index, its
    insertion order, and its neighbours sit in one CSR row. Adding an
    AS or an edge marks the view stale, and the next read freezes the
    graph again. Indices never move as the graph grows, so a table
    addressed by index stays valid across a re-freeze; only the new
    ASes lie past its end. A freeze moves every edge into the view's
    arrays: a frozen graph keeps no other copy of its adjacency, and
    the edges added since the last freeze wait in a small per-AS map
    until the next one. *)

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
  country : Country.t;
  kind : kind;
}

type t

val create : unit -> t

val add_as : t -> ?country:Country.t -> ?kind:kind -> Asn.t -> unit
(** Register an AS. Defaults: country [Country.nl], kind [Stub]. Re-adding an existing ASN raises [Invalid_argument]. *)

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
    in ascending ASN order. Read from the {!dense} view's row, as are
    {!customers} and {!providers}: each freezes a stale graph first. *)

val relationship : t -> Asn.t -> Asn.t -> Relationship.t option
(** [relationship g a b] is [b]'s role from [a]'s perspective: a
    binary search of [a]'s row in the last view, or a lookup among the
    edges added since. It never freezes the graph. *)

val customers : t -> Asn.t -> Asn.t list
val providers : t -> Asn.t -> Asn.t list

val prefixes_of : t -> Asn.t -> Prefix.t list
(** Prefixes originated by this AS, in address order. *)

val ases : t -> Asn.t list
(** All ASNs, ascending. *)

val n_ases : t -> int
val n_edges : t -> int
val n_prefixes : t -> int

val iter_prefixes : (Asn.t -> Prefix.t -> unit) -> t -> unit

(** {2 Dense view} *)

type dense = private {
  size : int;  (** ASes in the view, indexed [0 .. size - 1] *)
  asns : Asn.t array;  (** index -> ASN *)
  by_asn : int array;  (** every index, in ascending ASN order *)
  sorted : Asn.t array;  (** [asns.(by_asn.(k))]: the ASNs, ascending *)
  first : int array;
      (** CSR row starts, [size + 1] of them: the row of index [i] is
          [first.(i) .. first.(i + 1) - 1] *)
  nbr : int array;
      (** the neighbour indices of every row, each row in ascending
          ASN order (the order {!neighbors} returns) *)
  rel : Relationship.t array;
      (** [rel.(k)] is [nbr.(k)]'s role from the row AS's perspective *)
  graph_id : int;  (** the same for every view of one graph *)
  mark : int array;
      (** scratch for one traversal at a time: an AS is marked when its
          entry equals the traversal's {!next_epoch} stamp, so a new
          traversal starts with nothing marked and clears nothing *)
  ring : int array;  (** scratch: a queue of at most [size] indices *)
  mutable epoch : int;
}
(** A frozen, index-addressed snapshot of the graph's ASes and edges.
    An AS's index is its insertion order, so it is the same in every
    view of the graph. A view is never mutated after it is built,
    except for its scratch arrays. *)

val freeze : t -> dense
(** The current view: the cached one, or, after an {!add_as} or
    {!add_edge} marked it stale, a new one built in O(ASes + edges). *)

val index : dense -> Asn.t -> int
(** The AS's index in the view, [-1] if the view does not hold it. *)

val next_epoch : dense -> int
(** A fresh stamp for [mark], never used before on this view. *)
