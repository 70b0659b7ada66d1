(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue of thunks. All
    protocol machinery in the testbed (BGP timers, message delivery
    over links, scheduled announcements) runs as events on one engine,
    which makes whole-testbed runs deterministic and fast. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine at time 0. [seed] (default 42) seeds {!rng}. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Rng.t
(** The engine's root RNG stream. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative and not NaN. While causal tracing is on
    ({!Peering_obs.Span}), the ambient span context at the call is
    captured and restored around [f], so causality survives the trip
    through the queue. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant. The time must not be in the past or NaN. *)

val pending : t -> int
(** Number of queued events. *)

val step : t -> bool
(** Execute the earliest event. Returns [false] if the queue was
    empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, advancing the clock, until it is empty, the clock
    would pass [until], or [max_events] events have run. Events later
    than [until] remain queued. *)

val run_for : t -> float -> unit
(** [run_for t d] is [run ~until:(now t +. d) t], then advances the
    clock to exactly [now + d] even if the queue drained early. A NaN
    [d] raises [Invalid_argument]. *)
