(** A link-state IGP: shortest-path-first routing over unit-cost
    intradomain links (hop count, as on the Topology Zoo backbones,
    whose links carry no weights), used to resolve BGP next hops
    inside an emulated AS. *)

type t

val create : unit -> t

val add_node : t -> string -> unit
(** Idempotent. *)

val add_link : t -> string -> string -> unit
(** Undirected link. Idempotent. *)

val distances : t -> string -> (string * int) list
(** Hop counts from the given node to every reachable node
    (including itself at 0), sorted by node name. *)

val next_hops : t -> src:string -> string -> string option
(** [next_hops t ~src] runs one search from [src] and returns its
    next-hop table: the first hop on a shortest path from [src] to a
    destination; ties break by node-name order. [None] if unreachable
    or the destination is [src]. *)

val path : t -> src:string -> dst:string -> string list option
(** Full shortest path including both endpoints. *)
