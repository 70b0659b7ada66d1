open Peering_net
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics

let m_delivered = Metrics.counter "dataplane.forwarder.delivered"

let m_dropped = Metrics.counter "dataplane.forwarder.dropped"

let m_hops = Metrics.counter "dataplane.forwarder.hops"

type node_id = string

type node = {
  id : node_id;
  mutable addresses : Ipv4.t list;
  mutable fib : node_id Fib.t;
  mutable ingress : (Packet.t -> bool) option;
  mutable deliver : (Packet.t -> unit) option;
}

type t = {
  engine : Engine.t;
  nodes : (node_id, node) Hashtbl.t;
  mutable addr_index : node_id Prefix.Map.t;  (* host /32s -> node *)
  latencies : (node_id * node_id, float) Hashtbl.t;
  mutable delivered : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
  mutable dropped_filtered : int;
  mutable dropped_blackhole : int;
  mutable hops : int;
}

let default_latency = 0.005

let create engine =
  { engine;
    nodes = Hashtbl.create 64;
    addr_index = Prefix.Map.empty;
    latencies = Hashtbl.create 64;
    delivered = 0;
    dropped_ttl = 0;
    dropped_no_route = 0;
    dropped_filtered = 0;
    dropped_blackhole = 0;
    hops = 0
  }

let add_node t id =
  if not (Hashtbl.mem t.nodes id) then
    Hashtbl.replace t.nodes id
      { id; addresses = []; fib = Fib.empty; ingress = None; deliver = None }

let node_exn t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Forwarder: unknown node %s" id)

let add_address t id addr =
  let n = node_exn t id in
  n.addresses <- n.addresses @ [ addr ];
  t.addr_index <- Prefix.Map.add (Prefix.make addr 32) id t.addr_index

let node_of_address t addr =
  Prefix.Map.find_opt (Prefix.make addr 32) t.addr_index

let primary_address_of_node n =
  match n.addresses with a :: _ -> Some a | [] -> None

let primary_address t id = primary_address_of_node (node_exn t id)

let get_deliver t id = (node_exn t id).deliver

let set_link_latency t a b latency =
  Hashtbl.replace t.latencies (a, b) latency;
  Hashtbl.replace t.latencies (b, a) latency

let latency t a b =
  Option.value (Hashtbl.find_opt t.latencies (a, b)) ~default:default_latency

let set_route t id prefix action =
  let n = node_exn t id in
  n.fib <- Fib.add prefix action n.fib

let set_ingress_filter t id f = (node_exn t id).ingress <- Some f
let on_deliver t id f = (node_exn t id).deliver <- Some f

(* [router] is false only when the node originated the packet itself
   (hosts do not decrement their own TTL); a transiting node
   decrements before forwarding, and local delivery never expires. *)
let rec process t (node : node) ~router (pkt : Packet.t) =
  match Fib.lookup pkt.Packet.dst node.fib with
  | None ->
    t.dropped_no_route <- t.dropped_no_route + 1;
    Metrics.Counter.inc m_dropped
  | Some Fib.Blackhole ->
    t.dropped_blackhole <- t.dropped_blackhole + 1;
    Metrics.Counter.inc m_dropped
  | Some Fib.Local -> begin
    t.delivered <- t.delivered + 1;
    Metrics.Counter.inc m_delivered;
    match node.deliver with Some f -> f pkt | None -> ()
  end
  | Some (Fib.Via next) -> (
    let forwarded = if router then Packet.decrement_ttl pkt else Some pkt in
    match forwarded with
    | None ->
      t.dropped_ttl <- t.dropped_ttl + 1;
      Metrics.Counter.inc m_dropped;
      icmp_back t node pkt
        (Packet.Ttl_exceeded
           { original_dst = pkt.Packet.dst; original_id = pkt.Packet.id })
    | Some pkt ->
      t.hops <- t.hops + 1;
      Metrics.Counter.inc m_hops;
      let next_node = node_exn t next in
      let delay = latency t node.id next in
      Engine.schedule t.engine ~delay (fun () -> arrive t next_node pkt))

and arrive t node pkt =
  match node.ingress with
  | Some f when not (f pkt) ->
    t.dropped_filtered <- t.dropped_filtered + 1;
    Metrics.Counter.inc m_dropped
  | Some _ | None -> process t node ~router:true pkt

and icmp_back t (node : node) (orig : Packet.t) icmp =
  (* ICMP about ICMP errors is never generated (RFC 1122). *)
  match orig.Packet.proto with
  | Packet.Icmp (Packet.Ttl_exceeded _ | Packet.Dest_unreachable _) -> ()
  | Packet.Udp _ | Packet.Tcp _ -> (
    match primary_address_of_node node with
    | None -> ()
    | Some src ->
      let reply =
        Packet.make ~src ~dst:orig.Packet.src ~proto:(Packet.Icmp icmp) ()
      in
      process t node ~router:false reply)

let inject t ~at pkt = process t (node_exn t at) ~router:false pkt

let delivered t = t.delivered
let dropped_ttl t = t.dropped_ttl
let dropped_no_route t = t.dropped_no_route
let dropped_filtered t = t.dropped_filtered
let dropped_blackhole t = t.dropped_blackhole
let hops_forwarded t = t.hops
