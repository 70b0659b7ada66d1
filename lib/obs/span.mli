(** Causal span tracing.

    A {e span} is an interval of virtual time with a name, structured
    attributes and a causal parent: the paper's operational question —
    "what happened to {e this} client announcement at {e this} site" —
    is answered by minting a root span when work enters the system (a
    client announcement, a wire UPDATE, an injected fault) and opening
    child spans at each stage it passes through (safety verdict, mux
    export, route-server fan-out, tunnel forward). Completed spans are
    pushed to a recorder (normally {!Sink}'s buffer) and
    {!Sink.emit} stamps every trace event with the ambient context, so
    a flat event stream regains its causal tree.

    Ids are minted from a deterministic process-wide counter — never
    from a clock or RNG — so two identically-seeded runs produce
    byte-identical trace artifacts ({!reset}, which {!Sink.start}
    calls, rewinds the counter between runs). Virtual time stands still inside synchronous code,
    so a span only acquires duration when its work crosses the engine's
    event queue (wire latency, tunnel latency); zero-duration spans are
    normal and meaningful (see DESIGN.md §10).

    When tracing is disabled (the default) every entry point here is a
    load-and-branch: instrumented hot paths pay nothing. *)

type id = int
(** Span and trace identifiers. Minted sequentially from 1; a root
    span's trace id equals its own span id. *)

type context = {
  trace : id;  (** the root span's id — the whole causal tree's name *)
  span : id;  (** this span *)
  parent : id option;  (** the causally preceding span, if any *)
}
(** What gets threaded through the system and stamped onto events. *)

type completed = {
  ctx : context;
  name : string;  (** dot-separated stage name, e.g. ["core.safety.check"] *)
  started : float;  (** virtual time the span opened *)
  ended : float;  (** virtual time the span closed *)
  attrs : (string * string) list;  (** structured attributes, in order added *)
}
(** An immutable record of a finished span, as retained by {!Sink}. *)

type t
(** An open (in-progress) span. *)

val enabled : unit -> bool
(** Whether spans are being collected. All instrumentation guards on
    this, so a disabled process allocates nothing. *)

val set_enabled : bool -> unit
(** Turn collection on or off. Normally driven by {!Sink.start} /
    {!Sink.stop} rather than called directly. *)

val reset : unit -> unit
(** Rewind the id counter to 1 and clear the ambient context.
    {!Sink.start} calls it, so span ids — and therefore rendered trace
    artifacts — are identical across identically-seeded runs. *)

val start : ?attrs:(string * string) list -> time:float -> string -> t
(** [start ~time name] opens a span beginning at virtual time [time],
    parented on the ambient {!current} context: with a parent the span
    joins that trace; without one it roots a new trace.
    Returns a dummy that {!finish} ignores when collection is
    disabled. *)

val context : t -> context
(** The span's threadable context. *)

val finish : ?attrs:(string * string) list -> time:float -> t -> unit
(** Close the span at virtual time [time], appending [attrs], and push
    the {!completed} record to the recorder. Idempotent: only the
    first [finish] records (a duplicated wire delivery cannot
    double-count its span). *)

val current : unit -> context option
(** The ambient context — what {!Sink.emit} stamps onto events and
    what {!start} adopts as the parent. Always [None] while
    collection is disabled. *)

val with_current : context option -> (unit -> 'a) -> 'a
(** Run a thunk with the ambient context replaced, restoring the
    previous context afterwards (exception-safe). The simulation
    engine uses this to carry causality across the event queue: a
    callback runs under the context that was ambient when it was
    scheduled. *)

val with_span :
  ?attrs:(string * string) list ->
  ?time:(unit -> float) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] brackets [f] in a child span of the ambient
    context: opens at [time ()], makes the new span ambient for the
    duration of [f], closes at [time ()] again afterwards
    (exception-safe). [time] defaults to the clock installed with
    {!set_clock} — what subsystems with no engine handle (the route
    server) rely on. When collection is disabled it just runs [f]. *)

val set_clock : (unit -> float) -> unit
(** Install the virtual clock {!with_span} falls back on.
    {!Sink.start} installs its clock here, the same one that stamps
    events; the default clock reads 0. *)

val set_recorder : (completed -> unit) -> unit
(** Install the completed-span consumer. {!Sink} installs its buffer
    here at initialisation. *)
