open Peering_net
module Engine = Peering_sim.Engine

type hop = {
  ttl : int;
  responder : Ipv4.t option;
  rtt : float option;
}

type result = {
  target : Ipv4.t;
  hops : hop list;
  reached : bool;
}

let probe_timeout = 2.0

(* One TTL-limited probe; returns (responder, rtt, reached_target). *)
let probe fwd engine ~src_node ~src_addr ~target ~ttl =
  let answer : (Ipv4.t * float * bool) option ref = ref None in
  let sent_at = Engine.now engine in
  let pkt =
    Packet.make ~ttl ~src:src_addr ~dst:target
      ~proto:(Packet.Udp { sport = 33434; dport = 33434 + ttl })
      ()
  in
  let probe_id = pkt.Packet.id in
  (* Capture ICMP errors coming back to the source. *)
  let saved_src = Forwarder.get_deliver fwd src_node in
  Forwarder.on_deliver fwd src_node (fun (p : Packet.t) ->
      match p.Packet.proto with
      | Packet.Icmp (Packet.Ttl_exceeded { original_id; _ })
        when original_id = probe_id && !answer = None ->
        answer := Some (p.Packet.src, Engine.now engine -. sent_at, false)
      | Packet.Icmp (Packet.Dest_unreachable { original_id; _ })
        when original_id = probe_id && !answer = None ->
        answer := Some (p.Packet.src, Engine.now engine -. sent_at, true)
      | _ -> ( match saved_src with Some f -> f p | None -> ()));
  (* If the target is one of our nodes, emulate the port-unreachable a
     real host sends back for high-port UDP probes. *)
  let saved_dst =
    match Forwarder.node_of_address fwd target with
    | Some dst_node when dst_node <> src_node ->
      let saved = Forwarder.get_deliver fwd dst_node in
      Forwarder.on_deliver fwd dst_node (fun (p : Packet.t) ->
          if p.Packet.id = probe_id then
            Forwarder.inject fwd ~at:dst_node
              (Packet.make ~src:target ~dst:p.Packet.src
                 ~proto:
                   (Packet.Icmp
                      (Packet.Dest_unreachable
                         { original_dst = p.Packet.dst;
                           original_id = p.Packet.id
                         }))
                 ())
          else match saved with Some f -> f p | None -> ());
      Some (dst_node, saved)
    | _ -> None
  in
  Forwarder.inject fwd ~at:src_node pkt;
  Engine.run_for engine probe_timeout;
  (* Restore handlers. *)
  (match saved_src with
  | Some f -> Forwarder.on_deliver fwd src_node f
  | None -> Forwarder.on_deliver fwd src_node (fun _ -> ()));
  (match saved_dst with
  | Some (dst_node, Some f) -> Forwarder.on_deliver fwd dst_node f
  | Some (dst_node, None) -> Forwarder.on_deliver fwd dst_node (fun _ -> ())
  | None -> ());
  !answer

let max_ttl = 30

let run fwd engine ~src_node ~target =
  let src_addr =
    match Forwarder.primary_address fwd src_node with
    | Some a -> a
    | None -> invalid_arg "Traceroute.run: source node has no address"
  in
  (* The source must deliver its own address locally to hear replies. *)
  Forwarder.set_route fwd src_node (Prefix.make src_addr 32) Fib.Local;
  let rec go ttl acc =
    if ttl > max_ttl then (List.rev acc, false)
    else
      match probe fwd engine ~src_node ~src_addr ~target ~ttl with
      | Some (responder, rtt, reached) ->
        let hop = { ttl; responder = Some responder; rtt = Some rtt } in
        if reached then (List.rev (hop :: acc), true)
        else go (ttl + 1) (hop :: acc)
      | None ->
        let hop = { ttl; responder = None; rtt = None } in
        go (ttl + 1) (hop :: acc)
  in
  let hops, reached = go 1 [] in
  { target; hops; reached }

let pp ppf r =
  Format.fprintf ppf "traceroute to %s@." (Ipv4.to_string r.target);
  List.iter
    (fun h ->
      match (h.responder, h.rtt) with
      | Some a, Some rtt ->
        Format.fprintf ppf "%2d  %-15s  %.1f ms@." h.ttl (Ipv4.to_string a)
          (rtt *. 1000.0)
      | _ -> Format.fprintf ppf "%2d  *@." h.ttl)
    r.hops;
  if r.reached then Format.fprintf ppf "reached@."
