(** Rendering of {!Peering_obs.Metrics} snapshots.

    [Peering_obs] stores raw histogram samples and leaves summary
    statistics to the consumer; this module is that consumer — it joins
    the registry snapshot with {!Stats} percentiles and renders the
    result as aligned text (for [peering_cli stats]) or JSON (for
    [bench --json] artifacts). *)

val render : unit -> string
(** A human-readable table of every registered metric, volatile rows
    included, one per line: counters as integers, gauges as
    [value (hwm …)], histograms as [n/sum/p50/p90/p99], plus
    [dropped=N] when the histogram did not retain N samples
    (percentiles cover the retained ones). *)

val to_json : unit -> Peering_obs.Json.t
(** The snapshot without volatile rows as a JSON object keyed by
    {!Peering_obs.Metrics.row_name}. Counters map to integers; gauges
    to [{"value", "hwm"}]; histograms to
    [{"count", "sum", "p50", "p90", "p99", "dropped_samples"}]
    (percentiles [null] when no samples were retained). Deterministic
    for a seeded run, since the volatile rows are left out. *)
