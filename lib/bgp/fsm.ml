open Peering_net
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink

let m_transitions = Metrics.counter "bgp.fsm.transitions"

let m_established = Metrics.counter "bgp.session.established"

let m_closed = Metrics.counter "bgp.session.closed"

let m_updates_rx = Metrics.counter "bgp.session.updates_rx"

let m_keepalives_rx = Metrics.counter "bgp.session.keepalives_rx"

let m_notifications_rx = Metrics.counter "bgp.session.notifications_rx"

let m_fsm_errors = Metrics.counter "bgp.fsm.errors"

let m_auto_restarts = Metrics.counter "bgp.fsm.auto_restarts"

(* Per-peer state gauge (RFC 4271 state ordinal, Established = 5) so
   the registry can be cross-checked against the BMP Peer Up/Down feed
   — the mux exporter publishes the same family keyed (site, peer). *)
let fam_session_state = Metrics.Family.gauge "bgp.session.state"

type state = Idle | Active | Open_sent | Open_confirm | Established

(* RFC 4271's state numbering. Connect (1) is never entered: the
   transport is up before an FSM starts. *)
let state_ordinal = function
  | Idle -> 0
  | Active -> 2
  | Open_sent -> 3
  | Open_confirm -> 4
  | Established -> 5

let state_to_string = function
  | Idle -> "Idle"
  | Active -> "Active"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

type config = {
  local_asn : Asn.t;
  router_id : Ipv4.t;
  hold_time : int;
  auto_restart : bool;
  capabilities : Capability.t list;
  passive : bool;
}

(* Initial seconds between connection attempts: the IdleHoldTime base
   that auto-restart doubles on every failed attempt. *)
let connect_retry = 5.0

let default_config ~local_asn ~router_id =
  { local_asn;
    router_id;
    hold_time = 90;
    auto_restart = false;
    capabilities = [ Capability.Four_octet_asn (Asn.to_int local_asn) ];
    passive = false
  }

type callbacks = {
  send : Message.t -> unit;
  on_established : Wire.session_opts -> unit;
  on_update : Message.update -> unit;
  on_close : string -> unit;
}

type t = {
  engine : Engine.t;
  config : config;
  cb : callbacks;
  mutable state : state;
  mutable peer_open : Message.open_msg option;
  mutable negotiated : Wire.session_opts option;
  mutable hold_deadline : float;
  mutable hold_interval : float;  (** negotiated hold time; 0 = disabled *)
  mutable timer_generation : int;  (** invalidates stale timer events *)
  mutable established_count : int;
  mutable retry_backoff : float;  (** current IdleHoldTime base, seconds *)
  mutable admin_down : bool;  (** administratively stopped; no auto-restart *)
  mutable gr_time : int option;
      (** peer's RFC 4724 restart time, once negotiated; survives close *)
}

let create engine config cb =
  { engine;
    config;
    cb;
    state = Idle;
    peer_open = None;
    negotiated = None;
    hold_deadline = infinity;
    hold_interval = 0.0;
    timer_generation = 0;
    established_count = 0;
    retry_backoff = connect_retry;
    admin_down = false;
    gr_time = None
  }

let state t = t.state
let negotiated t = t.negotiated
let established_count t = t.established_count
let graceful_restart_time t = t.gr_time

let peer_label t =
  match t.peer_open with
  | Some o -> Asn.to_string o.Message.asn
  | None -> "?"

(* All state changes funnel through here so the transition counter and
   the typed trace stay complete. *)
let set_state t next =
  if t.state <> next then begin
    Metrics.Counter.inc m_transitions;
    Metrics.Gauge.set
      (Metrics.Family.get fam_session_state [ ("peer", peer_label t) ])
      (float_of_int (state_ordinal next));
    if Sink.active () then
      Sink.emit ~time:(Engine.now t.engine) ~subsystem:"bgp.fsm"
        (Peering_obs.Event.Session_transition
           { peer = peer_label t;
             from_state = state_to_string t.state;
             to_state = state_to_string next
           });
    t.state <- next
  end

let my_open t =
  Message.Open
    { version = 4;
      asn = t.config.local_asn;
      hold_time = t.config.hold_time;
      router_id = t.config.router_id;
      capabilities = t.config.capabilities
    }

let bump_timers t = t.timer_generation <- t.timer_generation + 1

(* Reconnect backoff: each failed attempt doubles the IdleHoldTime up
   to a cap; the actual delay is jittered from the engine RNG so
   synchronized flaps desynchronize, yet identical seeds replay the
   same timeline (RFC 4271 §8.2.1's DampPeerOscillations, condensed). *)
let max_retry_backoff = 120.0

let rec schedule_restart t =
  let jitter = 0.75 +. Peering_sim.Rng.float (Engine.rng t.engine) 0.5 in
  let delay = t.retry_backoff *. jitter in
  t.retry_backoff <- Float.min (t.retry_backoff *. 2.0) max_retry_backoff;
  Metrics.Counter.inc m_auto_restarts;
  let generation = t.timer_generation in
  Engine.schedule t.engine ~delay (fun () ->
      if generation = t.timer_generation && t.state = Idle && not t.admin_down
      then start t)

and start t =
  match t.state with
  | Idle ->
    t.admin_down <- false;
    if t.config.passive then set_state t Active
    else begin
      set_state t Open_sent;
      t.cb.send (my_open t);
      if t.config.auto_restart then begin
        let generation = t.timer_generation in
        Engine.schedule t.engine ~delay:t.retry_backoff
          (connect_check t generation)
      end
    end
  | Active | Open_sent | Open_confirm | Established -> ()

and connect_check t generation () =
  (* The OPEN we sent got no answer inside the retry window (lost on a
     lossy link, or the peer is partitioned away): give up on this
     attempt and go back to Idle, from where the backed-off restart
     timer tries again. *)
  if
    generation = t.timer_generation
    &&
    match t.state with
    | Open_sent | Open_confirm -> true
    | Idle | Active | Established -> false
  then close t "connect retry expired"

and close ?(restart = true) t reason =
  if t.state <> Idle then begin
    bump_timers t;
    Metrics.Counter.inc m_closed;
    set_state t Idle;
    t.peer_open <- None;
    t.negotiated <- None;
    t.cb.on_close reason;
    if restart && t.config.auto_restart && not t.admin_down then
      schedule_restart t
  end

let rec keepalive_tick t generation () =
  if generation = t.timer_generation && t.state = Established then begin
    t.cb.send Message.Keepalive;
    if t.hold_interval > 0.0 then
      Engine.schedule t.engine ~delay:(t.hold_interval /. 3.0)
        (keepalive_tick t generation)
  end

let rec hold_check t generation () =
  if generation = t.timer_generation && t.state = Established then
    if Engine.now t.engine >= t.hold_deadline then begin
      t.cb.send
        (Message.Notification
           { code = Message.Error.hold_timer_expired;
             subcode = 0;
             reason = "hold timer expired"
           });
      close t "hold timer expired"
    end
    else
      Engine.schedule_at t.engine ~time:t.hold_deadline (hold_check t generation)

let enter_established t =
  let peer =
    match t.peer_open with
    | Some o -> o
    | None -> assert false
  in
  let opts =
    { Wire.four_octet_asn =
        Capability.negotiated_four_octet t.config.capabilities
          peer.capabilities;
      add_path =
        Capability.negotiated_add_path t.config.capabilities peer.capabilities
    }
  in
  t.negotiated <- Some opts;
  t.gr_time <-
    Capability.negotiated_graceful_restart t.config.capabilities
      peer.capabilities;
  t.retry_backoff <- connect_retry;
  set_state t Established;
  Metrics.Counter.inc m_established;
  t.established_count <- t.established_count + 1;
  t.hold_interval <- float_of_int (min t.config.hold_time peer.hold_time);
  bump_timers t;
  let generation = t.timer_generation in
  if t.hold_interval > 0.0 then begin
    t.hold_deadline <- Engine.now t.engine +. t.hold_interval;
    Engine.schedule t.engine ~delay:(t.hold_interval /. 3.0)
      (keepalive_tick t generation);
    Engine.schedule_at t.engine ~time:t.hold_deadline (hold_check t generation)
  end;
  t.cb.on_established opts

let touch_hold t =
  if t.hold_interval > 0.0 then
    t.hold_deadline <- Engine.now t.engine +. t.hold_interval

let stop t ~reason =
  t.admin_down <- true;
  if t.state = Established || t.state = Open_confirm || t.state = Open_sent
  then
    t.cb.send
      (Message.Notification
         { code = Message.Error.cease; subcode = 0; reason });
  close ~restart:false t reason

let kill t ~reason =
  (* Transport loss (crash, RST, fault injection): no NOTIFICATION
     makes it onto the wire; the peer finds out via its own timers. *)
  close t reason

let handle_garbage t ~reason =
  if t.state <> Idle then begin
    Metrics.Counter.inc m_fsm_errors;
    t.cb.send
      (Message.Notification
         { code = Message.Error.message_header; subcode = 0; reason });
    close t reason
  end

let fsm_error t got =
  Metrics.Counter.inc m_fsm_errors;
  t.cb.send
    (Message.Notification
       { code = Message.Error.fsm;
         subcode = 0;
         reason = Printf.sprintf "unexpected %s in %s" got
             (state_to_string t.state)
       });
  close t "FSM error"

let validate_open t (o : Message.open_msg) =
  if o.version <> 4 then Error "bad version"
  else if o.hold_time = 1 || o.hold_time = 2 then Error "unacceptable hold time"
  else if Asn.equal o.asn t.config.local_asn && not (Ipv4.equal o.router_id t.config.router_id)
  then Ok `Ibgp
  else if Asn.equal o.asn t.config.local_asn then Error "router-id collision"
  else Ok `Ebgp

let handle t msg =
  match (t.state, msg) with
  | Idle, _ -> () (* discard; transport should be down *)
  | Active, Message.Open o -> (
    (* Passive side: respond with our OPEN then confirm. *)
    match validate_open t o with
    | Error e ->
      t.cb.send
        (Message.Notification
           { code = Message.Error.open_message; subcode = 0; reason = e });
      close t e
    | Ok _ ->
      t.peer_open <- Some o;
      t.cb.send (my_open t);
      t.cb.send Message.Keepalive;
      set_state t Open_confirm)
  | Active, _ -> fsm_error t "message before OPEN"
  | Open_sent, Message.Open o -> (
    match validate_open t o with
    | Error e ->
      t.cb.send
        (Message.Notification
           { code = Message.Error.open_message; subcode = 0; reason = e });
      close t e
    | Ok _ ->
      t.peer_open <- Some o;
      t.cb.send Message.Keepalive;
      set_state t Open_confirm)
  | Open_sent, Message.Notification n -> close t n.reason
  | Open_sent, (Message.Update _ | Message.Keepalive) ->
    fsm_error t "update/keepalive"
  | Open_confirm, Message.Keepalive -> enter_established t
  | Open_confirm, Message.Notification n -> close t n.reason
  | Open_confirm, Message.Open _ -> fsm_error t "second OPEN"
  | Open_confirm, Message.Update _ -> fsm_error t "early UPDATE"
  | Established, Message.Update u ->
    touch_hold t;
    Metrics.Counter.inc m_updates_rx;
    if Sink.active () then
      Sink.emit ~time:(Engine.now t.engine) ~subsystem:"bgp.session"
        (Peering_obs.Event.Update_rx
           { peer = peer_label t;
             announced = List.length u.Message.nlri;
             withdrawn = List.length u.Message.withdrawn
           });
    t.cb.on_update u
  | Established, Message.Keepalive ->
    Metrics.Counter.inc m_keepalives_rx;
    touch_hold t
  | Established, Message.Notification n ->
    Metrics.Counter.inc m_notifications_rx;
    close t n.reason
  | Established, Message.Open _ -> fsm_error t "OPEN while established"
