(** IPv4 addresses.

    Addresses are represented as non-negative integers in the range
    [0, 2^32 - 1], stored in the native [int] (OCaml ints are 63-bit on
    every platform we target, so the full IPv4 space fits). *)

type t = private int
(** An IPv4 address. The representation is the address as a big-endian
    32-bit unsigned integer. *)

val of_int : int -> t
(** [of_int n] is the address with numeric value [n land 0xFFFFFFFF]. *)

val to_int : t -> int
(** [to_int a] is the numeric value of [a]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d]. Each octet is masked
    to 8 bits. *)

val of_string : string -> t option
(** [of_string s] parses dotted-quad notation ["a.b.c.d"]. Returns
    [None] on malformed input or octets outside [0, 255]. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on parse failure. *)

val to_string : t -> string
(** [to_string a] is the dotted-quad rendering of [a]. *)

val compare : t -> t -> int
(** Total order on addresses (numeric). *)

val equal : t -> t -> bool

val add : t -> int -> t
(** [add a n] offsets [a] by [n] addresses, wrapping modulo 2^32. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant
    bit. Raises [Invalid_argument] unless [0 <= i < 32]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (dotted quad). *)
