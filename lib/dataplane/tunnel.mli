(** OpenVPN-style tunnels.

    PEERING servers forward traffic to and from clients through
    tunnels (paper §3, "Controlling traffic"). A tunnel joins two
    forwarder nodes across arbitrary topology distance, with its own
    latency and byte accounting; packets entering one end pop out at
    the other without consuming TTL (encapsulation). *)

open Peering_net

type t

val establish :
  Forwarder.t ->
  Peering_sim.Engine.t ->
  ?latency:float ->
  a:Forwarder.node_id ->
  b:Forwarder.node_id ->
  unit ->
  t
(** Create a tunnel between nodes [a] and [b] (default latency
    0.02 s). Use {!route_via} to steer prefixes into it. *)

val route_via : t -> at:Forwarder.node_id -> Prefix.t -> unit
(** Install a FIB entry at endpoint [at] that sends the prefix into
    the tunnel. (Implemented with a per-tunnel virtual node, so the
    forwarding path stays uniform.) *)

val set_blackhole : t -> bool -> unit
(** Fault injection: while set, packets entering the tunnel are
    silently dropped (and counted) instead of delivered — the FIB
    still steers traffic in, which is what makes the loss silent. *)

val blackholed : t -> bool

val bytes_carried : t -> int
val packets_carried : t -> int
