(** Dataplane rate limiting: the token bucket behind
    {!Packet_program}'s rate-limit action. *)

type rate_limiter

val rate_limiter :
  Peering_sim.Engine.t -> rate_bytes_per_s:float -> burst_bytes:float ->
  rate_limiter
(** Token bucket against virtual time. *)

val rate_allow : rate_limiter -> Packet.t -> bool
(** Consume tokens for the packet; [false] when the bucket is empty
    (drop). *)
