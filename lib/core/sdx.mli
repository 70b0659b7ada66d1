(** A software-defined IXP in miniature (SDX, Gupta et al. SIGCOMM
    2014 — "the prototype used PEERING to route traffic to and from
    the actual Internet", paper §2).

    Participants attach an edge node and announce prefixes into the
    exchange; each may install application-specific outbound policies
    (match on packet fields, forward to a chosen peer). The controller
    composes policy with BGP: an override is installed only when its
    target participant actually announced a route covering the matched
    destinations — SDX's central correctness rule. Unmatched traffic
    follows plain BGP (longest prefix, first announcer wins ties). *)

open Peering_net
open Peering_dataplane

type action =
  | Forward_to of Asn.t  (** deliver via this participant *)

type rule = {
  description : string;
  matches : Packet_program.match_spec;
  action : action;
}

type t

val create :
  Peering_sim.Engine.t -> Forwarder.t -> name:string -> unit -> t

val fabric_node : t -> Forwarder.node_id
(** The exchange fabric; point participant routes here. *)

val attach_participant : t -> asn:Asn.t -> node:Forwarder.node_id -> unit
(** Register a participant's edge node. Raises on duplicates. *)

val announce : t -> from:Asn.t -> Prefix.t -> unit
(** A participant announces a prefix into the exchange (route-server
    style). Raises if [from] is not attached. *)

val set_policy : t -> asn:Asn.t -> rule list -> unit
(** Install the participant-supplied outbound rules (evaluated in
    order, before BGP forwarding). *)

val compile : t -> (unit, string) result
(** Build the fabric's forwarding state: BGP default routes plus the
    policy overrides that pass the reachability check. Fails if a
    [Forward_to] names an unattached participant. Re-callable after
    changes. *)

val rejected_rules : t -> (Asn.t * string) list
(** Rules dropped by the reachability check at the last compile:
    the target never announced a covering route for the rule's
    destination match. *)

val delivered_to : t -> Asn.t -> int
(** Packets the fabric has handed to this participant. *)
