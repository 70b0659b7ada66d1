open Peering_bgp
module Engine = Peering_sim.Engine
module Rng = Peering_sim.Rng
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink
module Span = Peering_obs.Span

let m_injected = Metrics.counter "fault.injected"

let m_dropped = Metrics.counter "fault.msg_dropped"

let m_duplicated = Metrics.counter "fault.msg_duplicated"

let m_corrupted = Metrics.counter "fault.msg_corrupted"

let m_delayed = Metrics.counter "fault.msg_delayed"

let m_session_resets = Metrics.counter "fault.session_resets"

let m_partitions = Metrics.counter "fault.partitions"

let m_mux_crashes = Metrics.counter "fault.mux_crashes"

let m_blackholes = Metrics.counter "fault.tunnel_blackholes"

let m_fate_groups = Metrics.counter "fault.fate_groups"

type link = {
  session : Session.t;
  mutable generation : int;  (* invalidates expiry of replaced impairments *)
}

type tun = {
  tunnel : Peering_dataplane.Tunnel.t;
  mutable t_generation : int;  (* same trick for overlapping blackholes *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  links : (string, link) Hashtbl.t;
  muxes : (string, Peering_core.Server.t) Hashtbl.t;
  tunnels : (string, tun) Hashtbl.t;
}

let create engine =
  { engine;
    (* A split stream: fault decisions interleave with protocol
       machinery without perturbing its draws. *)
    rng = Rng.split (Engine.rng engine);
    links = Hashtbl.create 8;
    muxes = Hashtbl.create 4;
    tunnels = Hashtbl.create 4
  }

let add_link t ~name session =
  if Hashtbl.mem t.links name then
    invalid_arg "Injector.add_link: duplicate name";
  Hashtbl.replace t.links name { session; generation = 0 }

let add_mux t ~name server =
  if Hashtbl.mem t.muxes name then invalid_arg "Injector.add_mux: duplicate name";
  Hashtbl.replace t.muxes name server

let add_tunnel t ~name tunnel =
  if Hashtbl.mem t.tunnels name then
    invalid_arg "Injector.add_tunnel: duplicate name";
  Hashtbl.replace t.tunnels name { tunnel; t_generation = 0 }

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let targets t =
  { Plan.links = sorted_keys t.links;
    muxes = sorted_keys t.muxes;
    tunnels = sorted_keys t.tunnels
  }

let find tbl what name =
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Injector: unknown %s %S" what name)

let emit_fault t fault =
  Metrics.Counter.inc m_injected;
  if Sink.active () then
    Sink.emit ~time:(Engine.now t.engine) ~level:Peering_obs.Event.Warn
      ~subsystem:"fault"
      (Peering_obs.Event.Fault_injected
         { target = Plan.target fault; fault = Plan.describe fault })

let emit_recovered t ~target ~after_s =
  if Sink.active () then
    Sink.emit ~time:(Engine.now t.engine) ~subsystem:"fault"
      (Peering_obs.Event.Recovered { target; after_s })

(* Install [hook] on the link for [duration]; a newer hook on the same
   link supersedes the pending expiry via the generation counter. *)
let impair_for t ~name ~duration hook =
  let link = find t.links "link" name in
  link.generation <- link.generation + 1;
  let generation = link.generation in
  Session.set_fault_hook link.session (Some hook);
  Engine.schedule t.engine ~delay:duration (fun () ->
      if generation = link.generation then begin
        Session.set_fault_hook link.session None;
        emit_recovered t ~target:name ~after_s:duration
      end)

let profile_hook t (p : Plan.link_profile) _msg =
  if p.Plan.loss > 0.0 && Rng.bernoulli t.rng p.Plan.loss then begin
    Metrics.Counter.inc m_dropped;
    Some Session.Retransmit
  end
  else if p.Plan.duplicate > 0.0 && Rng.bernoulli t.rng p.Plan.duplicate
  then begin
    Metrics.Counter.inc m_duplicated;
    Some Session.Duplicate
  end
  else if p.Plan.corrupt > 0.0 && Rng.bernoulli t.rng p.Plan.corrupt then begin
    Metrics.Counter.inc m_corrupted;
    Some Session.Corrupt
  end
  else if p.Plan.reorder > 0.0 && Rng.bernoulli t.rng p.Plan.reorder then begin
    Metrics.Counter.inc m_delayed;
    Some (Session.Delay (Rng.float t.rng p.Plan.reorder_max_delay))
  end
  else None

let rec apply_fault t fault =
  emit_fault t fault;
  match fault with
  | Plan.Impair { link; profile; duration } ->
    impair_for t ~name:link ~duration (profile_hook t profile)
  | Plan.Partition { link; duration } ->
    Metrics.Counter.inc m_partitions;
    impair_for t ~name:link ~duration (fun _ ->
        Metrics.Counter.inc m_dropped;
        Some Session.Drop)
  | Plan.Session_reset { link } ->
    Metrics.Counter.inc m_session_resets;
    let l = find t.links "link" link in
    Session.reset l.session ~reason:"fault: session reset"
  | Plan.Mux_crash { mux; downtime } ->
    Metrics.Counter.inc m_mux_crashes;
    let server = find t.muxes "mux" mux in
    Peering_core.Server.crash server;
    Engine.schedule t.engine ~delay:downtime (fun () ->
        Peering_core.Server.restart server;
        emit_recovered t ~target:mux ~after_s:downtime)
  | Plan.Tunnel_blackhole { tunnel; duration } ->
    Metrics.Counter.inc m_blackholes;
    let tun = find t.tunnels "tunnel" tunnel in
    tun.t_generation <- tun.t_generation + 1;
    let generation = tun.t_generation in
    Peering_dataplane.Tunnel.set_blackhole tun.tunnel true;
    Engine.schedule t.engine ~delay:duration (fun () ->
        (* A newer blackhole window on the same tunnel owns the expiry
           now — same generation trick as link impairments. *)
        if generation = tun.t_generation then begin
          Peering_dataplane.Tunnel.set_blackhole tun.tunnel false;
          emit_recovered t ~target:tunnel ~after_s:duration
        end)
  | Plan.Fate_group { group; faults } ->
    if
      List.exists
        (function Plan.Fate_group _ -> true | _ -> false)
        faults
    then invalid_arg (Printf.sprintf "Injector: nested fate group %S" group);
    Metrics.Counter.inc m_fate_groups;
    (* Correlated failure: every member fires at this same instant,
       each emitting its own Fault_injected event so the timeline
       shows the shared-fate cluster. *)
    List.iter (apply_fault t) faults

(* A chaos fault is one of the traced entry points: each applied step
   roots its own span, so everything the fault triggers (drops, mux
   restart exports, recovery) hangs off it in [peering_cli trace]. *)
let apply t fault =
  Span.with_span
    ~time:(fun () -> Engine.now t.engine)
    ~attrs:[ ("target", Plan.target fault); ("fault", Plan.describe fault) ]
    "fault.inject"
    (fun () -> apply_fault t fault)

let arm t plan =
  (match Plan.errors (Plan.validate ~targets:(targets t) plan) with
  | [] -> ()
  | { Plan.at; message; _ } :: _ ->
    invalid_arg (Printf.sprintf "Injector.arm: step at %gs: %s" at message));
  List.iter
    (fun { Plan.at; fault } ->
      Engine.schedule t.engine ~delay:at (fun () -> apply t fault))
    plan
