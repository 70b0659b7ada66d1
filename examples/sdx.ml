(* A software-defined IXP on PEERING (paper §2: the SDX prototype "used
   PEERING to route traffic to and from the actual Internet").

   Three participants attach to the exchange. B and C both announce a
   content prefix, C first, so plain BGP sends A's traffic to C. A
   installs two outbound rules: web traffic (port 80) via B, and a
   rule toward a prefix nobody announced. The controller keeps the
   first and rejects the second, because SDX only installs an override
   whose target announced a covering route. A then sends one packet on
   port 80 and one on port 443.

     dune exec examples/sdx.exe *)

open Peering_net
open Peering_core
open Peering_dataplane
module Engine = Peering_sim.Engine

let content = Prefix.of_string_exn "198.51.100.0/24"

let () =
  let engine = Engine.create () in
  let fwd = Forwarder.create engine in
  let sdx = Sdx.create engine fwd ~name:"sdx-ix" () in
  let participants =
    [ ("A", Asn.of_int 100, "pA");
      ("B", Asn.of_int 200, "pB");
      ("C", Asn.of_int 300, "pC")
    ]
  in
  List.iter
    (fun (name, asn, node) ->
      Forwarder.add_node fwd node;
      Sdx.attach_participant sdx ~asn ~node;
      Printf.printf "participant %s: %s at %s\n" name (Asn.to_string asn) node)
    participants;
  let asn name =
    let _, a, _ = List.find (fun (n, _, _) -> n = name) participants in
    a
  in
  Sdx.announce sdx ~from:(asn "C") content;
  Sdx.announce sdx ~from:(asn "B") content;
  Printf.printf "C then B announce %s\n" (Prefix.to_string content);
  Sdx.set_policy sdx ~asn:(asn "A")
    [ { Sdx.description = "web-via-B";
        matches =
          { Packet_program.dst_in = Some content; dport = Some 80 };
        action = Sdx.Forward_to (asn "B")
      };
      { Sdx.description = "unannounced-via-C";
        matches =
          { Packet_program.match_any with
            Packet_program.dst_in = Some (Prefix.of_string_exn "203.0.113.0/24")
          };
        action = Sdx.Forward_to (asn "C")
      }
    ];
  (match Sdx.compile sdx with
  | Ok () -> print_endline "policy compiled"
  | Error m -> failwith m);
  List.iter
    (fun (a, reason) ->
      Printf.printf "  rejected for %s: %s\n" (Asn.to_string a) reason)
    (Sdx.rejected_rules sdx);
  (* A's edge hands traffic for the content prefix to the fabric. *)
  Forwarder.set_route fwd "pA" content (Fib.Via (Sdx.fabric_node sdx));
  List.iter
    (fun dport ->
      Forwarder.inject fwd ~at:"pA"
        (Packet.make
           ~src:(Ipv4.of_octets 10 0 100 1)
           ~dst:(Ipv4.of_octets 198 51 100 80)
           ~proto:(Packet.Tcp { sport = 9999; dport })
           ()))
    [ 80; 443 ];
  Engine.run ~until:2.0 engine;
  print_endline
    "A sends one packet to port 80 (policy: via B) and one to port 443 \
     (BGP: via C):";
  List.iter
    (fun (name, a, _) ->
      Printf.printf "  delivered to %s: %d\n" name (Sdx.delivered_to sdx a))
    participants
