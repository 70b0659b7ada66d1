(* A decoy-routing service (paper §3, "Deploying real services": "A
   decoy routing service could take traffic at an IXP, rewrite
   packets, and send the modified packet back to the IXP fabric
   towards its new destination").

   A censored client cannot reach blocked.example directly, but its
   traffic to an innocuous "decoy" destination transits the PEERING
   server at the IXP. The server's packet-processing program spots a
   covert tag (a magic destination port), rewrites the destination to
   the blocked site, and sends the packet onward — circumvention
   without the censor seeing the true destination.

     dune exec examples/decoy_routing.exe *)

open Peering_net
module Engine = Peering_sim.Engine
module Forwarder = Peering_dataplane.Forwarder
module Fib = Peering_dataplane.Fib
module Packet = Peering_dataplane.Packet
module Packet_program = Peering_dataplane.Packet_program

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let () =
  let engine = Engine.create () in
  let fwd = Forwarder.create engine in
  (* Topology: client -> censor -> ixp(PEERING server) -> {decoy, blocked} *)
  List.iter (Forwarder.add_node fwd)
    [ "client"; "censor"; "ixp"; "decoy"; "blocked" ];
  Forwarder.add_address fwd "client" (ip "203.0.113.10");
  Forwarder.add_address fwd "decoy" (ip "198.51.100.1");
  Forwarder.add_address fwd "blocked" (ip "192.0.2.80");
  (* routes *)
  List.iter
    (fun (node, dest, action) -> Forwarder.set_route fwd node dest action)
    [ ("client", pfx "0.0.0.0/0", Fib.Via "censor");
      ("censor", pfx "198.51.100.0/24", Fib.Via "ixp");
      ("censor", pfx "192.0.2.0/24", Fib.Blackhole) (* censorship *);
      ("ixp", pfx "198.51.100.0/24", Fib.Via "decoy");
      ("ixp", pfx "192.0.2.0/24", Fib.Via "blocked");
      ("decoy", pfx "198.51.100.0/24", Fib.Local);
      ("blocked", pfx "192.0.2.0/24", Fib.Local)
    ];

  (* The censor drops anything addressed to the blocked site. *)
  let censored = ref 0 in
  let censor_program =
    Packet_program.compile engine
      [ { Packet_program.name = "block-bad-site";
          spec =
            { Packet_program.match_any with
              Packet_program.dst_in = Some (pfx "192.0.2.0/24")
            };
          action = Packet_program.Drop
        };
        { Packet_program.name = "allow";
          spec = Packet_program.match_any;
          action = Packet_program.Allow
        }
      ]
  in
  Packet_program.install censor_program fwd "censor";

  (* The decoy-routing program at the PEERING server: traffic "to the
     decoy" on the covert port is rewritten toward the blocked site. *)
  let decoy_program =
    Packet_program.compile engine
      [ { Packet_program.name = "decoy-rewrite";
          spec =
            { Packet_program.dst_in = Some (pfx "198.51.100.0/24");
              dport = Some 443
            };
          action = Packet_program.Rewrite_dst (ip "192.0.2.80")
        };
        { Packet_program.name = "pass";
          spec = Packet_program.match_any;
          action = Packet_program.Allow
        }
      ]
  in
  Packet_program.install decoy_program fwd "ixp";

  let at_blocked = ref 0 and at_decoy = ref 0 in
  Forwarder.on_deliver fwd "blocked" (fun _ -> incr at_blocked);
  Forwarder.on_deliver fwd "decoy" (fun _ -> incr at_decoy);
  ignore censored;

  (* 1. Direct access to the blocked site: the censor eats it. *)
  Forwarder.inject fwd ~at:"client"
    (Packet.make ~src:(ip "203.0.113.10") ~dst:(ip "192.0.2.80")
       ~proto:(Packet.Tcp { sport = 5000; dport = 80 }) ());
  Engine.run_for engine 1.0;
  Printf.printf "direct request:       blocked site received %d (censor dropped %d)\n"
    !at_blocked
    (Packet_program.hits censor_program "block-bad-site");

  (* 2. Covert access via the decoy: innocuous destination passes the
     censor; the IXP program rewrites it. *)
  Forwarder.inject fwd ~at:"client"
    (Packet.make ~src:(ip "203.0.113.10") ~dst:(ip "198.51.100.1")
       ~proto:(Packet.Tcp { sport = 5001; dport = 443 }) ());
  Engine.run_for engine 1.0;
  Printf.printf
    "decoy-routed request: blocked site received %d (rewritten at IXP: %d)\n"
    !at_blocked
    (Packet_program.rewritten decoy_program);

  (* 3. Ordinary traffic to the decoy on another port is untouched. *)
  Forwarder.inject fwd ~at:"client"
    (Packet.make ~src:(ip "203.0.113.10") ~dst:(ip "198.51.100.1")
       ~proto:(Packet.Tcp { sport = 5002; dport = 80 }) ());
  Engine.run_for engine 1.0;
  Printf.printf "ordinary request:     decoy site received %d\n" !at_decoy;
  print_endline "done."
