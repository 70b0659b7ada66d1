(** A link-state IGP: shortest-path-first routing over weighted
    intradomain links (OSPF-style), used to resolve BGP next hops
    inside an emulated AS. *)

type t

val create : unit -> t

val add_node : t -> string -> unit
(** Idempotent. *)

val add_link : t -> string -> string -> weight:int -> unit
(** Undirected link. Re-adding replaces the weight. *)

val distances : t -> string -> (string * int) list
(** Shortest distances from the given node to every reachable node
    (including itself at 0), sorted by node name. *)

val next_hop : t -> src:string -> dst:string -> string option
(** First hop on a shortest path from [src] to [dst]; ties break by
    node-name order. [None] if unreachable or [src = dst]. *)

val path : t -> src:string -> dst:string -> string list option
(** Full shortest path including both endpoints. *)
