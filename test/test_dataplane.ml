open Peering_net
open Peering_dataplane
module Engine = Peering_sim.Engine

let check = Alcotest.check
let tc = Alcotest.test_case
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Fib *)

let test_fib_lpm () =
  let fib =
    Fib.empty
    |> Fib.add (pfx "0.0.0.0/0") (Fib.Via "gw")
    |> Fib.add (pfx "10.0.0.0/8") (Fib.Via "a")
    |> Fib.add (pfx "10.1.0.0/16") Fib.Local
    |> Fib.add (pfx "10.2.0.0/16") Fib.Blackhole
  in
  check Alcotest.bool "local" true (Fib.lookup (ip "10.1.2.3") fib = Some Fib.Local);
  check Alcotest.bool "via a" true (Fib.lookup (ip "10.9.0.1") fib = Some (Fib.Via "a"));
  check Alcotest.bool "blackhole" true
    (Fib.lookup (ip "10.2.0.1") fib = Some Fib.Blackhole);
  check Alcotest.bool "default" true
    (Fib.lookup (ip "8.8.8.8") fib = Some (Fib.Via "gw"))

(* ------------------------------------------------------------------ *)
(* Forwarder *)

(* A -- B -- C line; C owns 10.3.0.0/16. *)
let line () =
  let e = Engine.create () in
  let f = Forwarder.create e in
  List.iter (Forwarder.add_node f) [ "A"; "B"; "C" ];
  Forwarder.add_address f "A" (ip "10.1.0.1");
  Forwarder.add_address f "B" (ip "10.2.0.1");
  Forwarder.add_address f "C" (ip "10.3.0.1");
  (* routes toward C *)
  Forwarder.set_route f "A" (pfx "10.3.0.0/16") (Fib.Via "B");
  Forwarder.set_route f "B" (pfx "10.3.0.0/16") (Fib.Via "C");
  Forwarder.set_route f "C" (pfx "10.3.0.0/16") Fib.Local;
  (* routes back toward A *)
  Forwarder.set_route f "C" (pfx "10.1.0.0/16") (Fib.Via "B");
  Forwarder.set_route f "B" (pfx "10.1.0.0/16") (Fib.Via "A");
  Forwarder.set_route f "A" (pfx "10.1.0.0/16") Fib.Local;
  (e, f)

let test_forwarding_delivery () =
  let e, f = line () in
  let got = ref [] in
  Forwarder.on_deliver f "C" (fun p -> got := p :: !got);
  let pkt = Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.99") () in
  Forwarder.inject f ~at:"A" pkt;
  Engine.run ~until:1.0 e;
  check Alcotest.int "delivered" 1 (List.length !got);
  check Alcotest.int "stat" 1 (Forwarder.delivered f);
  check Alcotest.int "hops" 2 (Forwarder.hops_forwarded f);
  (* TTL decremented by the one transit router (B); the source host
     and the local delivery do not decrement *)
  match !got with
  | [ p ] -> check Alcotest.int "ttl" 63 p.Packet.ttl
  | _ -> Alcotest.fail "?"

let test_no_route_drop () =
  let e, f = line () in
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "99.0.0.1") ());
  Engine.run ~until:1.0 e;
  check Alcotest.int "dropped" 1 (Forwarder.dropped_no_route f);
  check Alcotest.int "not delivered" 0 (Forwarder.delivered f)

let test_ttl_expiry_generates_icmp () =
  let e, f = line () in
  let icmp = ref [] in
  Forwarder.on_deliver f "A" (fun p -> icmp := p :: !icmp);
  (* TTL 1: dies at B after one hop (decremented to 0) *)
  let pkt = Packet.make ~ttl:1 ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.99") () in
  Forwarder.inject f ~at:"A" pkt;
  Engine.run ~until:1.0 e;
  check Alcotest.int "ttl drop counted" 1 (Forwarder.dropped_ttl f);
  match !icmp with
  | [ p ] -> (
    check Alcotest.string "icmp from A's view of B" "10.2.0.1"
      (Ipv4.to_string p.Packet.src);
    match p.Packet.proto with
    | Packet.Icmp (Packet.Ttl_exceeded { original_id; _ }) ->
      check Alcotest.int "quotes original" pkt.Packet.id original_id
    | _ -> Alcotest.fail "not ttl-exceeded")
  | _ -> Alcotest.fail "no ICMP received"

let test_ingress_filter () =
  let e, f = line () in
  (* an anti-spoofing filter: accept only sources inside 10.1/16 *)
  Forwarder.set_ingress_filter f "B" (fun pkt ->
      Prefix.mem pkt.Packet.src (pfx "10.1.0.0/16"));
  (* legitimate source passes *)
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1") ());
  (* spoofed source dropped at B *)
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "66.66.66.66") ~dst:(ip "10.3.0.1") ());
  Engine.run ~until:1.0 e;
  check Alcotest.int "one delivered" 1 (Forwarder.delivered f);
  check Alcotest.int "one filtered" 1 (Forwarder.dropped_filtered f)

let test_blackhole () =
  let e, f = line () in
  Forwarder.set_route f "B" (pfx "10.3.0.0/16") Fib.Blackhole;
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1") ());
  Engine.run ~until:1.0 e;
  check Alcotest.int "swallowed" 1 (Forwarder.dropped_blackhole f)

let test_forwarding_loop_dies_by_ttl () =
  (* two nodes pointing at each other: the packet must die by TTL, not
     hang the engine *)
  let e = Engine.create () in
  let f = Forwarder.create e in
  Forwarder.add_node f "X";
  Forwarder.add_node f "Y";
  Forwarder.set_route f "X" (pfx "10.0.0.0/8") (Fib.Via "Y");
  Forwarder.set_route f "Y" (pfx "10.0.0.0/8") (Fib.Via "X");
  Forwarder.inject f ~at:"X"
    (Packet.make ~ttl:16 ~src:(ip "192.0.2.1") ~dst:(ip "10.0.0.1") ());
  Engine.run ~until:10.0 e;
  check Alcotest.int "loop terminated by ttl" 1 (Forwarder.dropped_ttl f);
  check Alcotest.bool "bounded hops" true (Forwarder.hops_forwarded f <= 16)

(* ------------------------------------------------------------------ *)
(* Tunnel *)

let test_tunnel_carries () =
  let e, f = line () in
  (* tunnel A <-> C bypassing B's tables *)
  let tun = Tunnel.establish f e ~a:"A" ~b:"C" () in
  Tunnel.route_via tun ~at:"A" (pfx "172.16.0.0/12");
  Forwarder.set_route f "C" (pfx "172.16.0.0/12") Fib.Local;
  let got = ref 0 in
  Forwarder.on_deliver f "C" (fun _ -> incr got);
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "172.16.1.1") ~size:500 ());
  Engine.run ~until:1.0 e;
  check Alcotest.int "delivered through tunnel" 1 !got;
  check Alcotest.int "bytes accounted" 500 (Tunnel.bytes_carried tun);
  check Alcotest.int "packets" 1 (Tunnel.packets_carried tun)

(* ------------------------------------------------------------------ *)
(* Filter rate limiter *)

let test_rate_limiter () =
  let e = Engine.create () in
  let rl = Filter.rate_limiter e ~rate_bytes_per_s:1000.0 ~burst_bytes:1000.0 in
  let pkt = Packet.make ~size:400 ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") () in
  check Alcotest.bool "1st" true (Filter.rate_allow rl pkt);
  check Alcotest.bool "2nd" true (Filter.rate_allow rl pkt);
  check Alcotest.bool "3rd exceeds burst" false (Filter.rate_allow rl pkt);
  (* tokens refill with virtual time *)
  Engine.run_for e 1.0;
  check Alcotest.bool "refilled" true (Filter.rate_allow rl pkt)

(* ------------------------------------------------------------------ *)
(* Traceroute *)

let test_traceroute_path () =
  let e, f = line () in
  let r = Traceroute.run f e ~src_node:"A" ~target:(ip "10.3.0.1") in
  check Alcotest.bool "reached" true r.Traceroute.reached;
  check Alcotest.(list string) "hops"
    [ "10.2.0.1"; "10.3.0.1" ]
    (List.filter_map
       (fun h -> Option.map Ipv4.to_string h.Traceroute.responder)
       r.Traceroute.hops)

let test_traceroute_unreachable () =
  let e, f = line () in
  let r = Traceroute.run f e ~src_node:"A" ~target:(ip "99.0.0.1") in
  check Alcotest.bool "not reached" false r.Traceroute.reached;
  check Alcotest.int "all stars, up to 30 hops" 30
    (List.length
       (List.filter (fun h -> h.Traceroute.responder = None) r.Traceroute.hops))

(* ------------------------------------------------------------------ *)
(* Packet_program (the §3 packet-processing API) *)

let pp_rule name spec action = { Packet_program.name; spec; action }

let test_program_drop_allow () =
  let e, f = line () in
  let prog =
    Packet_program.compile e
      [ pp_rule "block-net"
          { Packet_program.match_any with
            Packet_program.dst_in = Some (pfx "10.3.66.0/24")
          }
          Packet_program.Drop;
        pp_rule "rest" Packet_program.match_any Packet_program.Allow
      ]
  in
  Packet_program.install prog f "B";
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.66.1") ());
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1") ());
  Engine.run ~until:1.0 e;
  check Alcotest.int "one delivered" 1 (Forwarder.delivered f);
  check Alcotest.int "block rule hit" 1 (Packet_program.hits prog "block-net");
  check Alcotest.int "allow rule hit" 1 (Packet_program.hits prog "rest");
  check Alcotest.int "drops counted" 1 (Packet_program.dropped prog)

let test_program_rewrite () =
  let e, f = line () in
  (* at B, traffic to 10.3.0.1 port 443 is redirected to 10.1.0.1 *)
  Forwarder.set_route f "B" (pfx "10.1.0.0/16") (Fib.Via "A");
  let prog =
    Packet_program.compile e
      [ pp_rule "redirect"
          { Packet_program.dst_in = Some (pfx "10.3.0.0/16"); dport = Some 443 }
          (Packet_program.Rewrite_dst (ip "10.1.0.1"));
        pp_rule "rest" Packet_program.match_any Packet_program.Allow
      ]
  in
  Packet_program.install prog f "B";
  let got_a = ref 0 and got_c = ref 0 in
  Forwarder.on_deliver f "A" (fun _ -> incr got_a);
  Forwarder.on_deliver f "C" (fun _ -> incr got_c);
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1")
       ~proto:(Packet.Tcp { sport = 1; dport = 443 }) ());
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1")
       ~proto:(Packet.Tcp { sport = 1; dport = 80 }) ());
  Engine.run ~until:2.0 e;
  check Alcotest.int "443 redirected back to A" 1 !got_a;
  check Alcotest.int "80 went to C" 1 !got_c;
  check Alcotest.int "rewrites counted" 1 (Packet_program.rewritten prog)

let test_program_divert_and_mirror () =
  let e, f = line () in
  Forwarder.add_node f "monitor";
  Forwarder.set_route f "monitor" (pfx "0.0.0.0/0") Fib.Local;
  let seen = ref 0 in
  Forwarder.on_deliver f "monitor" (fun _ -> incr seen);
  let prog =
    Packet_program.compile e
      [ pp_rule "mirror-traceroute-port"
          { Packet_program.match_any with Packet_program.dport = Some 33434 }
          (Packet_program.Mirror "monitor")
      ]
  in
  Packet_program.install prog f "B";
  let delivered = ref 0 in
  Forwarder.on_deliver f "C" (fun _ -> incr delivered);
  Forwarder.inject f ~at:"A"
    (Packet.make ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1") ());
  Engine.run ~until:2.0 e;
  check Alcotest.int "original delivered" 1 !delivered;
  check Alcotest.int "copy at monitor" 1 !seen

let test_program_rate_limit () =
  let e, f = line () in
  let prog =
    Packet_program.compile e
      [ pp_rule "limit" Packet_program.match_any
          (Packet_program.Rate_limit
             { Packet_program.bytes_per_s = 64.0; burst = 128.0 })
      ]
  in
  Packet_program.install prog f "B";
  for _ = 1 to 5 do
    Forwarder.inject f ~at:"A"
      (Packet.make ~size:64 ~src:(ip "10.1.0.1") ~dst:(ip "10.3.0.1") ())
  done;
  Engine.run ~until:0.5 e;
  (* burst admits 2 packets of 64B; the rest drop *)
  check Alcotest.int "burst enforced" 2 (Forwarder.delivered f);
  check Alcotest.int "drops" 3 (Packet_program.dropped prog)

let () =
  Alcotest.run "dataplane"
    [ ("fib", [ tc "lpm" `Quick test_fib_lpm ]);
      ( "forwarder",
        [ tc "delivery" `Quick test_forwarding_delivery;
          tc "no route" `Quick test_no_route_drop;
          tc "ttl icmp" `Quick test_ttl_expiry_generates_icmp;
          tc "ingress filter" `Quick test_ingress_filter;
          tc "blackhole" `Quick test_blackhole;
          tc "loop dies by ttl" `Quick test_forwarding_loop_dies_by_ttl
        ] );
      ("tunnel", [ tc "carries" `Quick test_tunnel_carries ]);
      ("filter", [ tc "rate limiter" `Quick test_rate_limiter ]);
      ( "traceroute",
        [ tc "path" `Quick test_traceroute_path;
          tc "unreachable" `Quick test_traceroute_unreachable
        ] );
      ( "packet-program",
        [ tc "drop/allow" `Quick test_program_drop_allow;
          tc "rewrite" `Quick test_program_rewrite;
          tc "divert+mirror" `Quick test_program_divert_and_mirror;
          tc "rate limit" `Quick test_program_rate_limit
        ] )
    ]
