(** The analyzer's front end: the pass lists and one-call entry points.

    [Peering_check] is an rcc-style static analyzer (Feamster &
    Balakrishnan, NSDI'05) for the PEERING testbed: it vets router
    configurations, compiled policies and experiment schedules before
    they touch the mux, so a config that passes [check] instantiates
    without error and an experiment that passes [check] is not refused
    by the runtime {!Peering_core.Safety} filters for a statically
    predictable reason.

    Each entry point runs a fixed list of passes in order and counts
    them in the ["check.passes_run"] metric and their diagnostics in
    ["check.diagnostics"{severity}]. *)

open Peering_router

val check_configs : (string option * Config.t) list -> Diagnostic.t list
(** Per-config passes on each input, the policy passes on each of its
    compiled route-maps (one applied outbound towards PEERING's AS is
    vetted as an export to a provider), and cross-config passes
    (session consistency) over the whole set. *)

val check_specs : (string option * Spec.t) list -> Diagnostic.t list
(** Per-spec passes on each input plus cross-spec conflict passes
    (prefix overlap, ASN collisions, cross-experiment poisoning) over
    the whole batch. *)

val check_world : World.t -> Diagnostic.t list
(** The semantic verifier: every world pass (topology structure
    ({!Graph_checks}), static leak reachability ({!Leak_analysis}),
    stability ({!Stability})) plus per-spec and cross-spec
    passes over the world's attached specs. Diagnostics are sorted
    with {!Diagnostic.sort}. *)

val codes : (string * Diagnostic.severity * string) list
(** The diagnostic catalog: code, default severity, one-line
    description. *)
