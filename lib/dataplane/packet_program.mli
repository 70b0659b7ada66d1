(** The lightweight packet-processing API of paper §3: "we plan to
    expose a lightweight packet processing API (e.g., running an
    OpenFlow software switch or extending Linux's iptables) to provide
    common packet processing capabilities to clients at lower
    overhead".

    A program is an ordered list of match-action rules, evaluated
    first-match like an OpenFlow table. Programs install at a
    forwarder node and run on every arriving packet, before the FIB:
    they can drop, count, rewrite the destination, divert to another
    node, or fall through to normal forwarding. *)

open Peering_net

type match_spec = {
  dst_in : Prefix.t option;  (** None = wildcard *)
  dport : int option;  (** UDP/TCP destination port *)
}

val match_any : match_spec

type action =
  | Allow  (** continue to the FIB *)
  | Drop
  | Rewrite_dst of Ipv4.t  (** then continue to the FIB *)
  | Divert of Forwarder.node_id  (** re-inject at another node *)

type rule = {
  name : string;
  spec : match_spec;
  action : action;
}

type t

val compile : Peering_sim.Engine.t -> rule list -> t
(** Build a program; rewrites and diversions re-inject on the engine. *)

val install : t -> Forwarder.t -> Forwarder.node_id -> unit
(** Attach the program at a node. Packets arriving at (not originated
    by) the node traverse the rules; [Allow] or no match falls through
    to the node's FIB. Replaces any previous program/ingress filter at
    the node. *)

val hits : t -> string -> int
(** Packets matched by the named rule so far. *)

val dropped : t -> int
val rewritten : t -> int
