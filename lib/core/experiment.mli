(** Experiment descriptors.

    Every researcher activity on the testbed runs inside an
    experiment: a vetted proposal that owns a slice of PEERING's
    address space and a set of private ASNs for its emulated domains.
    Isolation between simultaneous experiments (paper §2/§3) is
    enforced by making all control- and data-plane permissions flow
    from this record. *)

open Peering_net

type status =
  | Proposed
  | Approved  (** vetted by the advisory board, not yet running *)
  | Active
  | Stopped
  | Rejected of string

type t = {
  id : string;
  owner : string;  (** researcher account *)
  description : string;
  mutable prefixes : Prefix.t list;  (** allocated out of PEERING's pool *)
  mutable private_asns : Asn.t list;  (** for emulated client domains *)
  may_poison : bool;
      (** whether the vetting allowed AS-path poisoning (LIFEGUARD-
          style announcements insert real ASNs into the path) *)
  mutable status : status;
}

val make :
  id:string ->
  owner:string ->
  description:string ->
  ?may_poison:bool ->
  unit ->
  t
(** A fresh proposal with no resources. *)

val owns_prefix : t -> Prefix.t -> bool
(** Is the prefix equal to or inside one of the experiment's
    allocations? *)

val owns_asn : t -> Asn.t -> bool
(** Is the ASN one of the experiment's private ASNs? *)

val is_active : t -> bool
val pp : Format.formatter -> t -> unit
