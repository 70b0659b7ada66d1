(** The process-wide recorder: one bounded buffer of trace events and
    completed spans.

    Instrumented code calls {!emit} unconditionally; while the
    recorder is off the call is a single load-and-branch, so hot paths
    pay nothing for tracing that nobody is collecting. A run turns the
    recorder on with {!start}, which also turns on span collection
    ({!Span.enabled}) and installs the virtual clock both share, and
    off with {!stop}.

    There is deliberately one recorder, not a registry of them: the
    simulator is single-threaded and deterministic, and a single
    process hosts a single testbed run.

    Events and spans live in one queue under one capacity; beyond it
    the {e oldest} entry of either kind is discarded and counted once,
    in {!dropped} and in the [obs.recorder.dropped] metric row. Events
    carry the span context that caused them, spans carry the interval
    tree; consumers ([peering_cli trace]) join the two. *)

type event = {
  time : float;  (** virtual time of the occurrence *)
  level : Event.level;
  subsystem : string;
  span : Span.context option;
      (** the causal span the event was emitted under — what lets
          [peering_cli trace] hang a flat event stream off its span
          tree *)
  ev : Event.t;
}
(** One recorded occurrence; render with {!message}. *)

val start : ?capacity:int -> ?clock:(unit -> float) -> unit -> unit
(** Begin recording: drop the previous run's entries, zero the drop
    count, rewind span ids ({!Span.reset}), and turn on both event
    capture and {!Span.enabled}. [capacity] (default 100000) bounds
    the retained events and spans together. [clock] (normally the
    engine's virtual clock) stamps events emitted without a time and
    is installed with {!Span.set_clock} for spans opened without one;
    it is installed on every call, and the default reads 0, so no
    clock outlives its run. *)

val stop : unit -> unit
(** Stop recording events and spans. Retained entries stay readable
    until the next {!start} or {!clear}. *)

val active : unit -> bool
(** Whether the recorder is on. It reads the one flag {!start} and
    {!stop} set, so it always equals {!Span.enabled}. Hot paths
    that must build an event payload guard on this to skip the
    allocation entirely. *)

val emit :
  ?time:float ->
  ?level:Event.level ->
  ?span:Span.context ->
  subsystem:string ->
  Event.t ->
  unit
(** Report an event. [time] is the virtual timestamp when the caller
    knows it (e.g. the safety layer's [~now]); otherwise the clock
    given to {!start} stamps it. [level] defaults to [Info]. [span]
    defaults to the ambient {!Span.current} context, so instrumented
    code stamped by a causal trace needs no changes at all. A no-op
    while the recorder is off. *)

val events : unit -> event list
(** Retained events, oldest first. *)

val spans : unit -> Span.completed list
(** Retained completed spans, in completion order. *)

val dropped : unit -> int
(** Entries (events and spans) discarded because the capacity bound
    was hit since the last {!start} or {!clear}. *)

val clear : unit -> unit
(** Drop all retained entries and zero {!dropped} without changing
    whether the recorder is on. *)

val message : event -> string
(** The event's rendered one-line message. *)

val count_by_subsystem : unit -> (string * int) list
(** Retained-event totals per subsystem, sorted by subsystem name. *)
