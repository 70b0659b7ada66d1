(** Blast-radius queries over completed spans.

    A fault injected into a running testbed roots a causal trace
    ({!Span}): everything it triggers — mux restart re-exports, wire
    retransmits, recovery events — finishes as spans sharing the
    root's trace id, each carrying structured attributes ([site],
    [client], [prefix], …). This module turns a recorder dump
    ({!Sink.spans}) into blast-radius accounting: {e which}
    entities a fault touched and {e for how long}.

    Everything here is a pure function of the span list, so reports
    built from it inherit the recorder's determinism: two
    identically-seeded runs roll up byte-identical blast radii. *)

type entity = {
  value : string;  (** the attribute value, e.g. a site or prefix name *)
  first : float;  (** earliest virtual start time of a span touching it *)
  last : float;  (** latest virtual end time of a span touching it *)
  spans : int;  (** how many spans carried the attribute *)
}
(** One impacted entity with its impact window. *)

val roots : Span.completed list -> name:string -> Span.completed list
(** Spans with the given name that root their own trace (their span id
    equals their trace id) — e.g. [~name:"fault.inject"] finds every
    fault that entered an otherwise-idle system. Returned in
    completion order. *)

val in_traces : Span.completed list -> Span.completed list -> Span.completed list
(** [in_traces spans roots] keeps the spans belonging to any of the
    root spans' traces (the roots themselves included). This is the
    causal closure of the roots: everything the faults set in motion,
    and nothing else. Order is preserved; a span is returned once even
    when several roots share a trace. *)

val rollup : Span.completed list -> key:string -> entity list
(** [rollup spans ~key] groups the spans carrying attribute [key] by
    the attribute's value: one {!entity} per distinct value, sorted by
    value, with the impact window spanning the earliest start and
    latest end among its spans. Spans without the attribute are
    ignored; a span listing the key twice counts once, under the first
    value. *)
