module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink
module Span = Peering_obs.Span

let m_wire_messages = Metrics.counter "bgp.wire.messages"

let m_wire_bytes = Metrics.counter "bgp.wire.bytes"

let m_updates_tx = Metrics.counter "bgp.session.updates_tx"

let m_decode_errors = Metrics.counter "bgp.wire.decode_errors"

type wire_fault = Drop | Retransmit | Duplicate | Corrupt | Delay of float

(* One direction of the transport. While a lost segment waits for its
   retransmission, everything sent after it waits too, as TCP's
   in-order delivery demands. Each held send carries the [finish] that
   closes its span if the connection dies first. *)
type lane = {
  held : ((unit -> unit) * (string -> unit)) Queue.t;
  mutable stalled : bool;
}

(* One-way wire latency, in seconds. *)
let latency = 0.01

type t = {
  engine : Engine.t;
  mutable a : Fsm.t;
  mutable b : Fsm.t;
  mutable bytes : int;
  mutable fault_hook : (Message.t -> wire_fault option) option;
  a_to_b : lane;
  b_to_a : lane;
  mutable connection : int;  (* bumped on every close; stale retransmits die *)
}

let set_fault_hook t hook = t.fault_hook <- hook

(* RFC 6298: a 1 s initial retransmission timeout, doubled on every
   further loss of the same segment, capped at 60 s. *)
let initial_rto = 1.0
let max_rto = 60.0

let rec drain lane =
  if not lane.stalled then
    match Queue.take_opt lane.held with
    | Some (send, _) ->
      send ();
      drain lane
    | None -> ()

(* The connection closed: segments awaiting retransmission, and the
   sends queued behind them, belonged to it and are gone. *)
let discard_pending t =
  t.connection <- t.connection + 1;
  List.iter
    (fun lane ->
      Queue.iter (fun (_, finish) -> finish "discarded") lane.held;
      Queue.clear lane.held;
      lane.stalled <- false)
    [ t.a_to_b; t.b_to_a ]

(* Encode with the sender's negotiated options (default before
   negotiation), deliver the bytes after [latency], decode with the
   receiver's options. *)
let transmit t ~lane ~(sender : unit -> Fsm.t) ~(receiver : unit -> Fsm.t)
    msg =
  let opts =
    Option.value (Fsm.negotiated (sender ())) ~default:Wire.default_opts
  in
  let bytes = Wire.encode opts msg in
  t.bytes <- t.bytes + Bytes.length bytes;
  Metrics.Counter.inc m_wire_messages;
  Metrics.Counter.add m_wire_bytes (Bytes.length bytes);
  (* A wire UPDATE is one of the traced entry points: a fresh root span
     when nothing caused it, a child when an announcement export (or
     another ambient span) did. The span stays open across the wire and
     is finished when the receiver consumes the bytes, so its duration
     is the wire latency in virtual time. *)
  let sp =
    match msg with
    | Message.Update _ when Span.enabled () ->
      Some
        (Span.start ~time:(Engine.now t.engine) "bgp.session.update"
           ~attrs:[ ("peer", Fsm.peer_label (sender ())) ])
    | _ -> None
  in
  let finish_sp fate =
    match sp with
    | None -> ()
    | Some s ->
      Span.finish s ~time:(Engine.now t.engine) ~attrs:[ ("fate", fate) ]
  in
  (match msg with
  | Message.Update u ->
    Metrics.Counter.inc m_updates_tx;
    if Sink.active () then
      Sink.emit
        ?span:(Option.map Span.context sp)
        ~time:(Engine.now t.engine) ~subsystem:"bgp.session"
        (Peering_obs.Event.Update_tx
           { peer = Fsm.peer_label (sender ());
             announced = List.length u.Message.nlri;
             withdrawn = List.length u.Message.withdrawn
           })
  | Message.Open _ | Message.Keepalive | Message.Notification _ -> ());
  let deliver ?(extra = 0.0) bytes =
    let schedule () =
      Engine.schedule t.engine ~delay:(latency +. extra) (fun () ->
          let rx = receiver () in
          let opts =
            Option.value (Fsm.negotiated rx) ~default:Wire.default_opts
          in
          (match Wire.decode opts bytes ~pos:0 with
          | Ok (msg, _) -> Fsm.handle rx msg
          | Error e ->
            Metrics.Counter.inc m_decode_errors;
            Fsm.handle_garbage rx
              ~reason:("wire decode failed: " ^ Wire.error_to_string e));
          (* Idempotent: a duplicated UPDATE finishes on its first
             delivery and the second is a no-op. *)
          finish_sp "delivered")
    in
    (* Run the scheduling under the UPDATE's span so the engine captures
       it and the receive-side processing stays on this causal path. *)
    match sp with
    | None -> schedule ()
    | Some s -> Span.with_current (Some (Span.context s)) schedule
  in
  let rec send ~rto () =
    match Option.bind t.fault_hook (fun hook -> hook msg) with
    | None -> deliver bytes
    | Some Drop -> finish_sp "dropped"
    | Some Retransmit ->
      lane.stalled <- true;
      let connection = t.connection in
      Engine.schedule t.engine ~delay:rto (fun () ->
          if connection = t.connection then begin
            lane.stalled <- false;
            send ~rto:(Float.min max_rto (2.0 *. rto)) ();
            drain lane
          end
          else finish_sp "discarded")
    | Some Duplicate ->
      deliver bytes;
      deliver bytes
    | Some (Delay extra) -> deliver ~extra bytes
    | Some Corrupt ->
      (* Smash the marker so the receiver sees unparseable bytes no
         matter which message type was in flight. *)
      let corrupted = Bytes.copy bytes in
      if Bytes.length corrupted > 0 then
        Bytes.set corrupted 0
          (Char.chr (Char.code (Bytes.get corrupted 0) lxor 0xFF));
      deliver corrupted
  in
  if lane.stalled then Queue.add (send ~rto:initial_rto, finish_sp) lane.held
  else send ~rto:initial_rto ()

let nop_established (_ : Wire.session_opts) = ()
let nop_update (_ : Message.update) = ()
let nop_close (_ : string) = ()

let create engine ~a:cfg_a ~b:cfg_b
    ?(on_update_a = nop_update) ?(on_update_b = nop_update)
    ?(on_established_a = nop_established) ?(on_established_b = nop_established)
    ?(on_close_a = nop_close) ?(on_close_b = nop_close) () =
  (* The wire callbacks read [session.a]/[session.b] at transmit time,
     so we can seed the record with a placeholder FSM and patch the
     real ones in before anything runs. *)
  let placeholder =
    Fsm.create engine cfg_a
      { Fsm.send = (fun _ -> ());
        on_established = nop_established;
        on_update = nop_update;
        on_close = nop_close
      }
  in
  let session =
    { engine;
      a = placeholder;
      b = placeholder;
      bytes = 0;
      fault_hook = None;
      a_to_b = { held = Queue.create (); stalled = false };
      b_to_a = { held = Queue.create (); stalled = false };
      connection = 0
    }
  in
  let fsm_a =
    Fsm.create engine
      { cfg_a with Fsm.passive = false }
      { Fsm.send =
          (fun m ->
            transmit session ~lane:session.a_to_b
              ~sender:(fun () -> session.a)
              ~receiver:(fun () -> session.b)
              m);
        on_established = on_established_a;
        on_update = on_update_a;
        on_close =
          (fun reason ->
            discard_pending session;
            on_close_a reason)
      }
  in
  let fsm_b =
    Fsm.create engine
      { cfg_b with Fsm.passive = true }
      { Fsm.send =
          (fun m ->
            transmit session ~lane:session.b_to_a
              ~sender:(fun () -> session.b)
              ~receiver:(fun () -> session.a)
              m);
        on_established = on_established_b;
        on_update = on_update_b;
        on_close =
          (fun reason ->
            discard_pending session;
            on_close_b reason)
      }
  in
  session.a <- fsm_a;
  session.b <- fsm_b;
  session

let start t =
  Fsm.start t.b;
  Fsm.start t.a

let a t = t.a
let b t = t.b

let established t =
  Fsm.state t.a = Fsm.Established && Fsm.state t.b = Fsm.Established

let send_from_a t msg =
  transmit t ~lane:t.a_to_b
    ~sender:(fun () -> t.a)
    ~receiver:(fun () -> t.b)
    msg

let send_from_b t msg =
  transmit t ~lane:t.b_to_a
    ~sender:(fun () -> t.b)
    ~receiver:(fun () -> t.a)
    msg

let drop t ~reason = Fsm.stop t.a ~reason

let reset t ~reason =
  (* Transport-level reset: both FSMs lose the connection at once and
     neither gets a NOTIFICATION on the wire. *)
  Fsm.kill t.a ~reason;
  Fsm.kill t.b ~reason
