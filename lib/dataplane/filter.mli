(** Dataplane safety filters.

    PEERING "only carries traffic coming from or destined to an
    experiment" and permits "only carefully controlled source address
    spoofing" (paper §2–3). These combinators build the ingress
    predicates its servers install. *)

open Peering_net

val anti_spoof : allowed:Prefix.t list -> Packet.t -> bool
(** Accept only packets whose source lies inside one of the allowed
    prefixes. *)

val experiment_traffic_only : experiment:Prefix.t list -> Packet.t -> bool
(** Accept packets whose source {e or} destination is inside the
    experiment's prefixes — PEERING's "no transit for non-PEERING
    destinations" rule. *)

type rate_limiter

val rate_limiter :
  Peering_sim.Engine.t -> rate_bytes_per_s:float -> burst_bytes:float ->
  rate_limiter
(** Token bucket against virtual time. *)

val rate_allow : rate_limiter -> Packet.t -> bool
(** Consume tokens for the packet; [false] when the bucket is empty
    (drop). *)
