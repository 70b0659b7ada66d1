(** IPv6 addresses (RFC 4291), with RFC 5952 canonical text form.

    The paper lists IPv6 support among PEERING's planned extensions
    ("we also plan to add support for IPv6", §3); this module and
    {!Prefix6} provide the address substrate, and the controller hands
    out /48 experiment blocks from a v6 supply. *)

type t = private { hi : int64; lo : int64 }
(** 128 bits, network byte order: [hi] holds bits 0–63. *)

val make : int64 -> int64 -> t

val of_string : string -> t option
(** Parses full, compressed ([::]) and mixed-case hexadecimal forms.
    (IPv4-mapped tails like [::ffff:1.2.3.4] are not supported.) *)

val of_string_exn : string -> t

val to_string : t -> string
(** RFC 5952 canonical form: lowercase, longest zero run compressed
    (leftmost on ties, never a single group). *)

val compare : t -> t -> int
val equal : t -> t -> bool

val bit : t -> int -> bool
(** [bit a i] is bit [i], 0 = most significant. [0 <= i < 128]. *)

val add : t -> int64 -> t
(** Add to the low 64 bits with carry into the high bits. *)
