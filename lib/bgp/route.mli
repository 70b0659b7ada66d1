(** A route: a prefix with its path attributes and bookkeeping about
    where it was learned. *)

open Peering_net

type source = {
  peer_asn : Asn.t;
  peer_addr : Ipv4.t;
  peer_router_id : Ipv4.t;
  ebgp : bool;  (** learned over eBGP (vs iBGP) *)
}

type t = {
  prefix : Prefix.t;
  attrs : Attrs.t;
  source : source option;  (** [None] for locally originated routes *)
  path_id : int;  (** ADD-PATH identifier; 0 when unused *)
  learned_at : float;  (** virtual time of installation *)
}

val make :
  ?source:source -> ?path_id:int -> ?learned_at:float ->
  Prefix.t -> Attrs.t -> t

val local : Prefix.t -> Attrs.t -> t
(** Locally originated route (no source). *)

val is_ebgp : t -> bool
(** [true] for eBGP-learned routes; locally originated routes count as
    not-eBGP. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
