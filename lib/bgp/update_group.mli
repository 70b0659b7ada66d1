(** Update packing: group prefixes that share path attributes into
    combined UPDATE messages, respecting the 4096-byte message limit
    (RFC 4271 §4.1).

    A full-table dump to a fresh session sends each distinct attribute
    set once with many NLRI, rather than one UPDATE per prefix — the
    difference between ~500K messages and ~50K for an Internet
    table. *)

open Peering_net

val group : (Prefix.t * Attrs.t) list -> Message.update list
(** Pack announcements into the fewest UPDATEs: prefixes with equal
    attributes share a message, split when the encoded size on a
    default session ({!Wire.default_opts}) would exceed the 4096-byte
    limit. Prefix order within a group is preserved. *)

val group_withdrawals : Prefix.t list -> Message.update list
(** Pack withdrawals, splitting at the size limit. *)

val message_count : (Prefix.t * Attrs.t) list -> int
(** [List.length (group l)] without materialising the messages. *)
