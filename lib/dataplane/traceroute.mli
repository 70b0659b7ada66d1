(** Traceroute over the simulated dataplane.

    Sends TTL-limited probes from a node, collects the ICMP
    time-exceeded sources, and reconstructs the forward path — the
    measurement primitive PECAN-style experiments use to compare
    alternate paths (paper §2, "Control of traffic"). *)

open Peering_net

type hop = {
  ttl : int;
  responder : Ipv4.t option;  (** [None] = no reply ("*") *)
  rtt : float option;
}

type result = {
  target : Ipv4.t;
  hops : hop list;  (** ascending TTL *)
  reached : bool;
}

val run :
  Forwarder.t ->
  Peering_sim.Engine.t ->
  src_node:Forwarder.node_id ->
  target:Ipv4.t ->
  ?max_ttl:int ->
  unit ->
  result
(** Run a complete traceroute. The engine is driven internally until
    all probes resolve or time out (2 s virtual per probe). *)

val pp : Format.formatter -> result -> unit
