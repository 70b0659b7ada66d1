(** Seed-driven fault injection over a running simulation.

    The injector holds a registry of named targets — BGP links
    ({!Peering_bgp.Session}), muxes ({!Peering_core.Server}) and
    tunnels ({!Peering_dataplane.Tunnel}) — and applies a {!Plan.t}
    against them on the shared engine. All probabilistic decisions draw
    from a stream split off the engine RNG at {!create}, so a given
    seed yields a bit-identical failure timeline; [fault.*] counters
    and [Fault_injected]/[Recovered] trace events record what
    happened. *)

type t

val create : Peering_sim.Engine.t -> t
(** A fresh injector on the engine; splits its RNG stream off the
    engine's root stream at this point. *)

val add_link : t -> name:string -> Peering_bgp.Session.t -> unit
(** Register a BGP session as an impairable link. Duplicate names
    raise [Invalid_argument]. *)

val add_mux : t -> name:string -> Peering_core.Server.t -> unit
(** Register a mux as a crash/restart target. *)

val add_tunnel : t -> name:string -> Peering_dataplane.Tunnel.t -> unit
(** Register a tunnel as a blackhole target. *)

val apply : t -> Plan.fault -> unit
(** Apply one fault right now (timed expiry still scheduled on the
    engine). Unknown target names raise [Invalid_argument], as does a
    nested {!Plan.Fate_group}. A fate group applies every member at
    the current instant under one [fault.inject] span. *)

val arm : t -> Plan.t -> unit
(** Vet the plan with {!Plan.validate} against every target registered
    so far, then schedule every step relative to the current virtual
    time. Raises [Invalid_argument] on the first [Error] issue (an
    unknown target, a rate outside [0,1], a non-positive window, a
    nested or empty fate group) before anything is scheduled.
    Overlapping impairments on one link — and overlapping blackhole
    windows on one tunnel — supersede each other: the newest hook wins
    and the superseded expiry is cancelled. *)
