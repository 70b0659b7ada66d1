open Peering_net
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink
module Span = Peering_obs.Span

let m_packets = Metrics.counter "dataplane.tunnel.packets"

let m_bytes = Metrics.counter "dataplane.tunnel.bytes"

let m_blackholed = Metrics.counter "dataplane.tunnel.blackholed_packets"

(* Round-trip estimate per forwarded packet: twice the one-way transit
   the packet actually experienced in virtual time. Rendered with
   p50/p90/p99 by [peering_cli stats] like every histogram. *)
let m_rtt = Metrics.histogram "dataplane.tunnel.rtt_s"

(* One-way tunnel latency, in seconds. *)
let latency = 0.02

type t = {
  fwd : Forwarder.t;
  a : Forwarder.node_id;
  b : Forwarder.node_id;
  via_a : Forwarder.node_id;  (* virtual node: entrance at [a] *)
  via_b : Forwarder.node_id;
  mutable blackhole : bool;
  mutable bytes : int;
  mutable packets : int;
}

let counter = ref 0

let establish fwd engine ~a ~b () =
  incr counter;
  let tag = Printf.sprintf "tun%d" !counter in
  let via_a = Printf.sprintf "%s@%s" tag a in
  let via_b = Printf.sprintf "%s@%s" tag b in
  let t =
    { fwd; a; b; via_a; via_b; blackhole = false;
      bytes = 0; packets = 0 }
  in
  (* The virtual entrance nodes deliver everything locally, then we
     re-inject at the far end. *)
  let make_entrance entrance far =
    Forwarder.add_node fwd entrance;
    Forwarder.set_route fwd entrance (Prefix.make (Ipv4.of_int 0) 0) Fib.Local;
    Forwarder.on_deliver fwd entrance (fun pkt ->
        if t.blackhole then
          (* Blackhole fault: the FIB still points into the tunnel, so
             packets keep arriving — and vanish. That silent loss is
             exactly what the fault models. *)
          Metrics.Counter.inc m_blackholed
        else begin
          let entered = Engine.now engine in
          t.bytes <- t.bytes + pkt.Packet.size;
          t.packets <- t.packets + 1;
          Metrics.Counter.inc m_packets;
          Metrics.Counter.add m_bytes pkt.Packet.size;
          (* The forward span stays open across the scheduled transit,
             so its duration is the tunnel latency in virtual time. *)
          let sp =
            if Span.enabled () then
              Some
                (Span.start ~time:entered "dataplane.tunnel.forward"
                   ~attrs:
                     [ ("tunnel", tag);
                       ("bytes", string_of_int pkt.Packet.size) ])
            else None
          in
          if Sink.active () then
            Sink.emit
              ?span:(Option.map Span.context sp)
              ~time:entered ~level:Peering_obs.Event.Debug
              ~subsystem:"dataplane.tunnel"
              (Peering_obs.Event.Tunnel_forward
                 { tunnel = tag; bytes = pkt.Packet.size });
          let deliver () =
            Engine.schedule engine ~delay:latency (fun () ->
                Forwarder.inject fwd ~at:far pkt;
                let now = Engine.now engine in
                Metrics.Histogram.observe m_rtt ((now -. entered) *. 2.0);
                match sp with
                | None -> ()
                | Some s -> Span.finish s ~time:now)
          in
          match sp with
          | None -> deliver ()
          | Some s -> Span.with_current (Some (Span.context s)) deliver
        end)
  in
  make_entrance via_a b;
  make_entrance via_b a;
  t

let route_via t ~at prefix =
  let entrance =
    if at = t.a then t.via_a
    else if at = t.b then t.via_b
    else invalid_arg "Tunnel.route_via: not an endpoint"
  in
  Forwarder.set_route t.fwd at prefix (Fib.Via entrance);
  (* Tunnel entry is instantaneous (same host). *)
  Forwarder.set_link_latency t.fwd at entrance 0.0

let set_blackhole t on = t.blackhole <- on
let blackholed t = t.blackhole
let bytes_carried t = t.bytes
let packets_carried t = t.packets
