(** AS business relationships (Gao–Rexford model).

    An edge label is directional: [Customer] means "the neighbor is my
    customer". Transit flows provider→customer; settlement-free peering
    exchanges only own/customer routes. *)

type t =
  | Customer  (** neighbor pays me; I give them full transit *)
  | Provider  (** I pay the neighbor *)
  | Peer  (** settlement-free *)

val invert : t -> t
(** The same edge seen from the other end. *)

val to_string : t -> string
val equal : t -> t -> bool

val import_preference : t -> int
(** Economic preference for routes by the relationship they were
    learned over: customer (2) > peer (1) > provider (0). Higher is
    better. *)

val exports_to : learned_from:t option -> t -> bool
(** [exports_to ~learned_from to_rel]: may a route learned over
    [learned_from] ([None] = locally originated) be exported to a
    neighbor with relationship [to_rel]? Gao–Rexford: own and
    customer-learned routes go to everyone; peer- and provider-learned
    routes go only to customers. *)
