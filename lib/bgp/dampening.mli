(** Route-flap dampening (RFC 2439).

    PEERING applies dampening to client announcements so experiments
    cannot destabilise the Internet's control plane (paper §3,
    "Enforcing safety"). Each (peer, prefix) accumulates a penalty per
    flap; the penalty decays exponentially; routes whose penalty
    exceeds the suppress threshold are held down until it decays below
    the reuse threshold.

    Observability: flaps, suppressions and releases land in the
    [bgp.dampening.flaps] / [suppressions] / [reuses] counters, and
    each release records the time the route spent held down in the
    [bgp.dampening.suppressed_s] histogram — the readout the chaos
    campaign's dampening parameter sweep renders. *)

open Peering_net

val max_suppress : float
(** Cap on hold-down, seconds: 3600. Each flap adds a penalty of
    1000. *)

type params = {
  suppress_threshold : float;  (** default 2000 *)
  reuse_threshold : float;  (** default 750 *)
  half_life : float;  (** seconds, default 900 *)
}

val default_params : params

type t

val create : ?params:params -> unit -> t

val flap : t -> now:float -> peer:string -> Prefix.t -> unit
(** Record a flap (withdrawal or attribute change) at virtual time
    [now]. *)

val penalty : t -> now:float -> peer:string -> Prefix.t -> float
(** Current decayed penalty. *)

val is_suppressed : t -> now:float -> peer:string -> Prefix.t -> bool
(** Whether announcements for this (peer, prefix) must be held down at
    [now]. Accounts for both reuse threshold and the max-suppress
    cap. *)

val reuse_time : t -> now:float -> peer:string -> Prefix.t -> float option
(** If suppressed, the virtual time at which the route becomes usable
    again. *)
