(* ARROW-style "one tunnel is (often) enough" (paper §2: "ARROW
   demonstrated an incrementally deployable solution to black holes,
   denial of service attacks, and prefix hijacking" using early
   PEERING).

   A source's only BGP path to a destination crosses a transit that
   starts blackholing. The source cannot fix interdomain routing — but
   a single tunnel to PEERING, which still has a clean path to the
   destination, restores connectivity: traffic enters the tunnel,
   pops out at the PEERING server, and is forwarded on the healthy
   route.

     dune exec examples/arrow.exe *)

open Peering_net
module Engine = Peering_sim.Engine
module Forwarder = Peering_dataplane.Forwarder
module Fib = Peering_dataplane.Fib
module Packet = Peering_dataplane.Packet
module Tunnel = Peering_dataplane.Tunnel
module Traceroute = Peering_dataplane.Traceroute

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let ping fwd engine ~label ~expect =
  let delivered_before = Forwarder.delivered fwd in
  Forwarder.inject fwd ~at:"src"
    (Packet.make ~src:(ip "203.0.113.1") ~dst:(ip "198.51.100.80") ());
  Engine.run_for engine 2.0;
  let ok = Forwarder.delivered fwd > delivered_before in
  Printf.printf "%-42s %s\n" label
    (if ok = expect then
       if ok then "delivered" else "lost (as expected)"
     else "UNEXPECTED");
  ok

let () =
  let engine = Engine.create () in
  let fwd = Forwarder.create engine in
  (* src -> transitA -> dst is the only BGP path; PEERING has its own
     clean path to dst via transitB. *)
  List.iter (Forwarder.add_node fwd)
    [ "src"; "transitA"; "transitB"; "peering"; "dst" ];
  Forwarder.add_address fwd "src" (ip "203.0.113.1");
  Forwarder.add_address fwd "dst" (ip "198.51.100.80");
  Forwarder.add_address fwd "transitA" (ip "10.0.1.1");
  Forwarder.add_address fwd "transitB" (ip "10.0.2.1");
  Forwarder.add_address fwd "peering" (ip "184.164.224.1");
  List.iter
    (fun (node, dest, action) -> Forwarder.set_route fwd node dest action)
    [ ("src", pfx "198.51.100.0/24", Fib.Via "transitA");
      ("transitA", pfx "198.51.100.0/24", Fib.Via "dst");
      ("peering", pfx "198.51.100.0/24", Fib.Via "transitB");
      ("transitB", pfx "198.51.100.0/24", Fib.Via "dst");
      ("dst", pfx "198.51.100.0/24", Fib.Local);
      (* return paths *)
      ("dst", pfx "203.0.113.0/24", Fib.Via "transitA");
      ("transitA", pfx "203.0.113.0/24", Fib.Via "src");
      ("src", pfx "203.0.113.0/24", Fib.Local)
    ];

  ignore (ping fwd engine ~label:"healthy Internet:" ~expect:true);

  (* transitA starts blackholing the destination. *)
  Forwarder.set_route fwd "transitA" (pfx "198.51.100.0/24") Fib.Blackhole;
  ignore (ping fwd engine ~label:"transitA blackholes:" ~expect:false);

  (* ARROW repair: one tunnel from the source to PEERING; steer the
     destination prefix into it. PEERING's path is clean. *)
  let tun = Tunnel.establish fwd engine ~a:"src" ~b:"peering" () in
  Tunnel.route_via tun ~at:"src" (pfx "198.51.100.0/24");
  ignore (ping fwd engine ~label:"with one ARROW tunnel via PEERING:" ~expect:true);
  Printf.printf "tunnel carried %d packets (%d bytes)\n"
    (Tunnel.packets_carried tun) (Tunnel.bytes_carried tun);

  (* The data path is visible to traceroute: src -> (tunnel) -> peering
     -> transitB -> dst. *)
  let tr = Traceroute.run fwd engine ~src_node:"src" ~target:(ip "198.51.100.80") in
  Format.printf "%a" Traceroute.pp tr;
  print_endline "done."
