(* The paper's §4.2 experiment as a runnable example: emulate
   Hurricane Electric's 24-PoP global backbone with MinineXt-style
   containers, connect the Amsterdam PoP to a PEERING mux at AMS-IX,
   and exchange routes and traffic between the emulated AS and the
   (simulated) Internet.

     dune exec examples/he_backbone.exe *)

open Peering_net
module Engine = Peering_sim.Engine
module Topology_zoo = Peering_topo.Topology_zoo
module Mininext = Peering_emu.Mininext
module Router = Peering_router.Router
module Rib = Peering_bgp.Rib
module Forwarder = Peering_dataplane.Forwarder
module Fib = Peering_dataplane.Fib
module Packet = Peering_dataplane.Packet
module Traceroute = Peering_dataplane.Traceroute

let () =
  let engine = Engine.create () in
  let fwd = Forwarder.create engine in

  (* 1. The emulated intradomain network: HE's backbone from the
     Topology Zoo, one router container per PoP. *)
  let he = Topology_zoo.hurricane_electric in
  Printf.printf "emulating %s: %d PoPs, %d links\n" he.Topology_zoo.name
    (Topology_zoo.n_pops he) (Topology_zoo.n_links he);
  let emu = Mininext.of_topology engine fwd ~asn:(Asn.of_int 6939) he in
  Mininext.start emu;
  Engine.run ~until:60.0 engine;
  Printf.printf "iBGP full mesh up: %d sessions\n"
    (Mininext.n_ibgp_sessions emu);

  (* 2. Each PoP originates a prefix. *)
  List.iteri
    (fun i pop ->
      Mininext.originate_at emu (Mininext.pop_name pop)
        (Prefix.make (Ipv4.of_octets 184 164 (224 + i) 0) 24))
    (Mininext.pops emu);
  Engine.run_for engine 30.0;

  (* 3. A PEERING mux at AMS-IX, speaking real BGP to the Amsterdam
     PoP over an eBGP session. *)
  let mux_addr = Ipv4.of_string_exn "100.65.0.1" in
  let mux = Router.create engine ~asn:(Asn.of_int 47065) ~router_id:mux_addr () in
  let ams = Mininext.pop_exn emu "Amsterdam" in
  ignore
    (Router.connect engine (mux, mux_addr) (Mininext.router ams, Mininext.loopback ams));
  Engine.run_for engine 10.0;

  (* The mux relays a slice of the AMS-IX table. *)
  for i = 0 to 99 do
    Router.originate mux (Prefix.make (Ipv4.of_octets 20 0 i 0) 24)
  done;
  Engine.run_for engine 60.0;

  (* 4. Routes went both ways. *)
  let sample_pop = Mininext.pop_exn emu "Hong Kong" in
  Printf.printf "Hong Kong PoP table: %d routes (24 internal + 100 AMS-IX)\n"
    (Router.table_size (Mininext.router sample_pop));
  let back =
    List.length
      (List.filter
         (fun (p, _) ->
           Prefix.subsumes (Prefix.of_string_exn "184.164.192.0/18") p)
         (Rib.best_routes (Router.rib mux)))
  in
  Printf.printf "mux learned %d PoP prefixes back from the emulated AS\n" back;

  (* 5. Traffic: a host behind the Seattle PoP reaches an AMS-IX
     destination across the emulated backbone and out of the border. *)
  Forwarder.add_node fwd "amsix-fabric";
  Forwarder.add_address fwd "amsix-fabric" (Ipv4.of_string_exn "20.0.7.7");
  Forwarder.set_route fwd "amsix-fabric" (Prefix.of_string_exn "20.0.0.0/16")
    Fib.Local;
  Mininext.external_gateway emu ~pop:"Amsterdam" ~peer_addr:mux_addr
    ~node:"amsix-fabric";
  Mininext.sync_fibs emu;
  let seattle = Mininext.pop_exn emu "Seattle" in
  let delivered = ref false in
  Forwarder.on_deliver fwd "amsix-fabric" (fun p ->
      delivered := true;
      Format.printf "delivered at AMS-IX: %a@." Packet.pp p);
  Forwarder.inject fwd
    ~at:(Mininext.node_id seattle)
    (Packet.make ~src:(Mininext.loopback seattle)
       ~dst:(Ipv4.of_string_exn "20.0.7.7") ());
  Engine.run_for engine 5.0;
  Printf.printf "Seattle -> AMS-IX traffic delivered: %b\n" !delivered;

  (* 6. Traceroute across the backbone shows the PoP-level path. *)
  let tr =
    Traceroute.run fwd engine
      ~src_node:(Mininext.node_id seattle)
      ~target:(Mininext.loopback (Mininext.pop_exn emu "Amsterdam"))
  in
  Format.printf "%a" Traceroute.pp tr;

  (* 7. The paper's scaling claim: memory stays desktop-sized. *)
  Printf.printf
    "memory: %.2f GB modelled for 24 Quagga containers (paper: fits in 8 GB)\n"
    (float_of_int (Mininext.container_model_bytes emu) /. 1073741824.0);
  print_endline "done."
