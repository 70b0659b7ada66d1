(** Allocation of /24 blocks out of a supply of parent prefixes.

    PEERING owns a /19 and hands each experiment its own /24; this
    module is that allocator. Allocations are disjoint by construction;
    freeing returns a block to the pool. *)

type t

val create : Prefix.t list -> t
(** [create supply] is a pool handing out the /24s carved from the
    [supply] prefixes. Raises [Invalid_argument] if any supply prefix
    is longer than /24, or if supply prefixes overlap. *)

val available : t -> int
(** Blocks currently free. *)

val alloc : t -> (Prefix.t * t) option
(** [alloc t] hands out the lowest free block, or [None] if exhausted. *)

val free : Prefix.t -> t -> (t, [ `Not_allocated ]) result
(** [free p t] returns [p] to the pool. Fails if [p] is not an
    outstanding allocation of this pool. *)

val add_supply : Prefix.t -> t -> t
(** [add_supply p t] donates an additional parent prefix (researchers
    offered to donate IPv4 prefixes to PEERING's pool, §3). Raises
    [Invalid_argument] on overlap with existing supply. *)

val mem_supply : Prefix.t -> t -> bool
(** [mem_supply p t] is [true] iff [p] is covered by the pool's supply
    (whether or not currently allocated). This is the ownership test
    the safety layer uses. *)
