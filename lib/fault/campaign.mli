(** Fault drills: the one runner for every fault the testbed is held to.

    Most drills fire {e correlated} and {e overlapping} faults against
    the real default testbed ({!Peering_core.Testbed}): every mux, a
    live upstream wire session per university site, a tunnel per site,
    and a MinineXt-style emulated backbone are all registered with one
    {!Injector}. The wire drills fire one fault class each (loss,
    duplication, corruption, reordering, a transport reset, a
    partition) at a standalone copy of one such upstream wire on its
    own engine. Every drill that arms a fault runs through the same
    harness and is held to two bars — a per-class recovery SLO (p99 of
    [fault.recovery_s{class=…}] against a budget) and {e zero routes
    lost} (every prefix's propagation reach, or the wire's tables,
    return exactly to the pre-fault baseline).

    Each drill runs under the {!Peering_obs.Sink} recorder: the injected
    faults root [fault.inject] traces, and the blast radius — which
    sites, clients and prefixes the fault actually touched, and for
    how long — is rolled up from the causal closure of those traces
    ({!Peering_obs.Blast}) plus per-prefix reach-dip windows sampled
    while the drill runs.

    Determinism: drill [i] of the canonical {!drills} list seeds its
    world with [campaign_seed + 101*i], spans are reset per drill, and
    no wall-clock value enters the report, so two same-seed runs (and
    a single-drill rerun of any campaign member) produce byte-identical
    blast accounting. *)

(** {1 Blast-radius accounting} *)

type reach_dip = {
  dip_prefix : string;
  baseline_reach : int;
  min_reach : int;  (** lowest reach observed during the drill *)
  dip_from : float;  (** virtual time reach first dipped below baseline *)
  dip_until : float;  (** virtual time reach last sat below baseline *)
}

type blast = {
  by_target : Peering_obs.Blast.entity list;
      (** injected targets, from the [fault.inject] root spans *)
  by_site : Peering_obs.Blast.entity list;
      (** sites whose spans joined a fault's causal trace *)
  by_client : Peering_obs.Blast.entity list;
  by_prefix : Peering_obs.Blast.entity list;
  impacted_sites : string list;
      (** union of span-derived sites and the injected targets' own
          sites, sorted and deduplicated *)
  reach_dips : reach_dip list;
  trace_spans : int;  (** spans in the faults' causal closure *)
}

type outcome = {
  drill : string;
  slo_class : string;  (** the [fault.recovery_s] class label *)
  injected : string list;  (** {!Plan.describe} of everything injected *)
  reconverged : bool;
  recovery_s : float;  (** NaN when the drill never settled *)
  routes_lost : int;
      (** summed baseline-reach shortfall at drill end (scheduled
          tenants included; for a wire drill, the routes missing from
          its two tables); 0 required *)
  tenant_reaches : (string * int * int) list;
      (** [(tenant, baseline reach, final reach)] per scheduled
          experiment, for drills that run the multi-tenant scheduler
          (["multi_tenant"]); [[]] elsewhere. The per-tenant
          zero-routes-lost SLO is [final = baseline] for every row. *)
  blast : blast;
  detail : string;
}

(** {1 Recovery SLOs} *)

type slo = { slo_class : string; p99_budget_s : float }

val default_slos : slo list
(** One budget per drill class; see EXPERIMENTS.md for the calibration
    rationale. *)

(** {1 Dampening parameter sweep} *)

type sweep_row = {
  half_life : float;
  suppress_threshold : float;
  reuse_threshold : float;
  flaps_to_suppression : int;
  suppressed_s : float;  (** hold-down time until release; NaN if never *)
  released : bool;
}

(** {1 Running campaigns} *)

val drills : string list
(** The canonical drill names, in seed order: ["compound"] (mux
    restart overlapping two partitions), ["fate_group"] (all site
    tunnels blackholed as one correlated group), ["cascade"]
    (overlapping mux crashes with a mid-outage client failover
    re-export), ["leak_storm"] (RFC 7908 leak edges injected mid-run,
    blast radius = the pollution set), ["dampening"] (the RFC 2439
    parameter sweep), ["multi_tenant"] (the compound plan fired under
    20 concurrent {!Peering_core.Scheduler}-admitted experiments;
    recovery additionally requires every tenant's per-prefix reach
    back at its own baseline), then the wire drills ["loss"],
    ["duplicate"], ["corrupt"], ["reorder"] (SLO class ["impair"]),
    ["reset"] (["session_reset"]) and ["partition"]. *)

val run_drill :
  ?on_world:(Peering_core.Testbed.t -> unit) ->
  seed:int ->
  string ->
  outcome * sweep_row list
(** Run one drill on a fresh world. [on_world] is called with the
    drill's testbed right after it is built and before any fault is
    armed — the BMP differential harness uses it to attach a
    {!Peering_measure.Monitor} to every mux inside the drill (the wire
    drills and ["dampening"] build no testbed and ignore it). The
    sweep rows are non-empty only for ["dampening"]. Raises
    [Invalid_argument] on unknown names. *)

type report = {
  seed : int;
  outcomes : outcome list;
  slos : Peering_measure.Stats.slo list;
      (** one {!Peering_measure.Stats.slo} verdict (p99 by linear
          interpolation) per class of {!default_slos} that recorded a
          recovery sample, in that order; classes with none are
          dropped *)
  sweep : sweep_row list;
  zero_routes_lost : bool;
  passed : bool;
      (** all drills reconverged, zero routes lost, every SLO met *)
}

val run : ?seed:int -> ?drills:string list -> unit -> report
(** Run the named drills (default: all of {!drills}) and judge them
    against {!default_slos}. Each drill derives its seed from its
    position in the canonical list, so subsets replay the same worlds
    the full campaign uses. The caller owns {!Peering_obs.Metrics.reset} — the
    CLI resets the registry first so same-seed reports are
    byte-identical regardless of process history. *)

val to_json : report -> Peering_obs.Json.t
(** Schema ["peering-chaos/2"], embedding the metrics
    snapshot. Deterministic for a given seed and drill list. *)
