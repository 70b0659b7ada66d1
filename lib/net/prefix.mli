(** IPv4 CIDR prefixes.

    A prefix is an address plus a length in [0, 32]. Construction
    normalises the address by zeroing host bits, so structural equality
    coincides with semantic equality. *)

type t = private { addr : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** [make addr len] is the prefix [addr/len] with host bits cleared.
    Raises [Invalid_argument] unless [0 <= len <= 32]. *)

val of_string : string -> t option
(** [of_string "a.b.c.d/len"] parses CIDR notation. A bare address is
    accepted as a /32. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on failure. *)

val to_string : t -> string

val addr : t -> Ipv4.t
val len : t -> int

val mem : Ipv4.t -> t -> bool
(** [mem a p] is [true] iff address [a] falls inside prefix [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is [true] iff [p] contains [q] (i.e. [q] is equal to
    or more specific than [p]). *)

val overlaps : t -> t -> bool
(** [overlaps p q] is [true] iff the address ranges intersect. *)

val first : t -> Ipv4.t
(** First (network) address covered. *)

val last : t -> Ipv4.t
(** Last (broadcast) address covered. *)

val size : t -> int
(** Number of addresses covered: [2^(32-len)]. *)

val subprefixes : t -> int -> t list
(** [subprefixes p l] enumerates all subprefixes of [p] of length [l],
    in address order. Raises [Invalid_argument] if [l < len p] or
    [l > 32]. The list has [2^(l - len p)] elements; callers are
    expected to keep the delta small. *)

val nth_subprefix : t -> int -> int -> t
(** [nth_subprefix p l i] is the [i]-th (0-based, in address order)
    subprefix of [p] with length [l], without materialising the list. *)

val compare : t -> t -> int
(** Order by address, then by length (shorter first). *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
