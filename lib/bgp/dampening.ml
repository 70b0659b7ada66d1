open Peering_net
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink

let m_flaps = Metrics.counter "bgp.dampening.flaps"

let m_suppressions = Metrics.counter "bgp.dampening.suppressions"

let m_reuses = Metrics.counter "bgp.dampening.reuses"

let m_suppressed_s = Metrics.histogram "bgp.dampening.suppressed_s"

(* The penalty one flap adds, and the cap on hold-down (seconds). *)
let penalty_per_flap = 1000.0
let max_suppress = 3600.0

type params = {
  suppress_threshold : float;
  reuse_threshold : float;
  half_life : float;
}

let default_params =
  { suppress_threshold = 2000.0; reuse_threshold = 750.0; half_life = 900.0 }

type entry = {
  mutable penalty : float;  (** as of [updated] *)
  mutable updated : float;
  mutable suppressed_since : float option;
}

type t = { params : params; table : (string * Prefix.t, entry) Hashtbl.t }

let create ?(params = default_params) () =
  { params; table = Hashtbl.create 64 }

let decayed t (e : entry) ~now =
  let dt = now -. e.updated in
  if dt <= 0.0 then e.penalty
  else e.penalty *. Float.pow 0.5 (dt /. t.params.half_life)

let refresh t e ~now =
  e.penalty <- decayed t e ~now;
  e.updated <- now;
  (match e.suppressed_since with
  | Some since ->
    if
      e.penalty < t.params.reuse_threshold
      || now -. since >= max_suppress
    then begin
      e.suppressed_since <- None;
      Metrics.Counter.inc m_reuses;
      Metrics.Histogram.observe m_suppressed_s (now -. since);
      (* After the max-suppress cap fires, clamp the penalty so the
         route does not instantly re-suppress on the next tiny flap. *)
      if now -. since >= max_suppress then
        e.penalty <- min e.penalty t.params.reuse_threshold
    end
  | None ->
    if e.penalty >= t.params.suppress_threshold then begin
      e.suppressed_since <- Some now;
      Metrics.Counter.inc m_suppressions
    end)

let get t ~peer prefix = Hashtbl.find_opt t.table (peer, prefix)

let flap t ~now ~peer prefix =
  let e =
    match get t ~peer prefix with
    | Some e -> e
    | None ->
      let e = { penalty = 0.0; updated = now; suppressed_since = None } in
      Hashtbl.replace t.table (peer, prefix) e;
      e
  in
  refresh t e ~now;
  e.penalty <- e.penalty +. penalty_per_flap;
  refresh t e ~now;
  Metrics.Counter.inc m_flaps;
  if Sink.active () then
    Sink.emit ~time:now ~level:Peering_obs.Event.Debug
      ~subsystem:"bgp.dampening"
      (Peering_obs.Event.Dampening_penalty
         { peer;
           prefix;
           penalty = e.penalty;
           suppressed = e.suppressed_since <> None
         })

let penalty t ~now ~peer prefix =
  match get t ~peer prefix with
  | None -> 0.0
  | Some e -> decayed t e ~now

let is_suppressed t ~now ~peer prefix =
  match get t ~peer prefix with
  | None -> false
  | Some e ->
    refresh t e ~now;
    e.suppressed_since <> None

let reuse_time t ~now ~peer prefix =
  match get t ~peer prefix with
  | None -> None
  | Some e ->
    refresh t e ~now;
    (match e.suppressed_since with
    | None -> None
    | Some since ->
      (* Time for penalty to decay to the reuse threshold. *)
      let p = e.penalty in
      let decay_t =
        if p <= t.params.reuse_threshold then now
        else
          now
          +. t.params.half_life
             *. (Float.log (p /. t.params.reuse_threshold) /. Float.log 2.0)
      in
      Some (min decay_t (since +. max_suppress)))
