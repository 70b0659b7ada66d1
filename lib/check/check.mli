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

open Peering_bgp
open Peering_router
open Peering_topo

val check_config : ?file:string -> Config.t -> Diagnostic.t list
(** Run every per-config pass. [file] is stamped onto the
    diagnostics. *)

val check_configs : (string option * Config.t) list -> Diagnostic.t list
(** Per-config passes on each input plus cross-config passes (session
    consistency) over the whole set. *)

val check_policy :
  ?name:string -> ?relationship:Relationship.t -> Policy.t -> Diagnostic.t list

val check_spec : ?file:string -> Spec.t -> Diagnostic.t list

val check_experiment :
  Peering_core.Experiment.t -> Spec.event list -> Diagnostic.t list
(** Vet a programmatic experiment plus its planned schedule. *)

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
