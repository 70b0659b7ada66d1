(** The BGP best-path decision process (RFC 4271 §9.1.2.2 with the
    standard vendor tie-breakers).

    A key point of the PEERING architecture is that its servers do
    {e not} run this process on behalf of clients — each client sees
    every peer's route and decides for itself (paper §3). Clients,
    emulated routers, and the simulated Internet's ASes all use this
    module. *)

val compare : Route.t -> Route.t -> int
(** [compare a b < 0] iff [a] is preferred over [b]. Steps, in order:
    highest local-pref; shortest AS path; lowest origin; lowest MED
    (compared only between routes from the same neighbor AS, missing
    MED = 0); eBGP over iBGP; lowest peer router-id; lowest peer
    address; lowest path-id. Locally originated routes win over all
    learned routes (they behave as weight = maximum). *)

val best : Route.t list -> Route.t option
(** The most preferred route, or [None] on an empty list; of equally
    preferred routes, the first in the list. Each run on a non-empty
    list counts in [bgp.decision.runs]. Only while the recorder runs
    ({!Peering_obs.Sink.active}) does it also emit a [Decision_run]
    event and time itself into the volatile [bgp.decision.latency_s]
    histogram; otherwise that histogram stays empty. *)

val sort : Route.t list -> Route.t list
(** Candidates ordered best-first. *)
