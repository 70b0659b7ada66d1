(** A miniature DNS: authoritative A records with lookups.

    Stands in for the live lookups of §4.1's Alexa experiment ("we ran
    DNS lookups for these domain names from our AMS-IX server"). *)

open Peering_net

type t

val create : unit -> t

val add_a : t -> string -> Ipv4.t -> unit
(** Add an A record (duplicates ignored). Names are case-insensitive. *)

val resolve : t -> string -> Ipv4.t list
(** All A records for the name, in insertion order; [] if unknown. *)
