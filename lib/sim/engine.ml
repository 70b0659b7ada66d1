module Metrics = Peering_obs.Metrics
module Span = Peering_obs.Span

(* Process-wide instrumentation (all engines share these; a test that
   wants per-run numbers resets the default registry first). The
   wall-clock pacing histogram is volatile: its samples depend on host
   speed, so it is excluded from deterministic snapshots. *)
let m_events =
  Metrics.counter ~help:"simulation events executed" "engine.events_executed"

let m_scheduled =
  Metrics.counter ~help:"events pushed onto the queue" "engine.events_scheduled"

let m_queue =
  Metrics.gauge ~help:"event-queue depth (hwm = high-water mark)"
    "engine.queue_depth"

let m_wall =
  Metrics.histogram ~volatile:true ~sample_cap:1024
    ~help:"host seconds spent per virtual second inside run_for"
    "engine.wall_s_per_vsec"

type t = {
  mutable clock : float;
  queue : (unit -> unit) Event_queue.t;
  rng : Rng.t;
}

let create ?(seed = 42) () =
  { clock = 0.0; queue = Event_queue.create (); rng = Rng.create seed }

let now t = t.clock
let rng t = t.rng

let note_scheduled t =
  Metrics.Counter.inc m_scheduled;
  Metrics.Gauge.set m_queue (float_of_int (Event_queue.length t.queue))

(* Causal tracing across virtual time: a callback runs under the span
   context that was ambient when it was scheduled, so a wire delivery
   or tunnel hop stays attached to the announcement that caused it.
   When tracing is off this is a single load-and-branch. *)
let capture_span f =
  if Span.enabled () then
    match Span.current () with
    | None -> f
    | Some _ as ctx -> fun () -> Span.with_current ctx f
  else f

let schedule_at t ~time f =
  if not (time >= t.clock) then
    invalid_arg "Engine.schedule_at: time in the past or NaN";
  Event_queue.push t.queue ~time (capture_span f);
  note_scheduled t

let schedule t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg "Engine.schedule: negative or NaN delay";
  Event_queue.push t.queue ~time:(t.clock +. delay) (capture_span f);
  note_scheduled t

let pending t = Event_queue.length t.queue

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- max t.clock time;
    Metrics.Counter.inc m_events;
    f ();
    true

let run ?until t =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | None -> continue := false
    | Some time -> (
      match until with
      | Some horizon when time > horizon -> continue := false
      | _ -> ignore (step t))
  done

let run_for t d =
  if Float.is_nan d then invalid_arg "Engine.run_for: NaN duration";
  let horizon = t.clock +. d in
  let wall_start = Sys.time () in
  run ~until:horizon t;
  t.clock <- max t.clock horizon;
  if d > 0.0 then
    Metrics.Histogram.observe m_wall ((Sys.time () -. wall_start) /. d)
