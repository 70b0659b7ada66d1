open Peering_net
open Peering_emu
open Peering_dataplane
module Engine = Peering_sim.Engine
module Topology_zoo = Peering_topo.Topology_zoo

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Igp *)

let square () =
  (* a - b - d, and the longer a - c - e - d *)
  let g = Igp.create () in
  List.iter
    (fun (x, y) -> Igp.add_link g x y)
    [ ("a", "b"); ("b", "d"); ("a", "c"); ("c", "e"); ("e", "d") ];
  g

let test_igp_shortest () =
  let g = square () in
  check Alcotest.(option string) "a->d via b" (Some "b")
    (Igp.next_hops g ~src:"a" "d");
  check Alcotest.(option (list string)) "path" (Some [ "a"; "b"; "d" ])
    (Igp.path g ~src:"a" ~dst:"d");
  check Alcotest.(list (pair string int)) "distances"
    [ ("a", 0); ("b", 1); ("c", 1); ("d", 2); ("e", 2) ]
    (Igp.distances g "a")

let test_igp_reroute_on_failure () =
  let g = square () in
  check Alcotest.(option string) "d->c via e" (Some "e")
    (Igp.next_hops g ~src:"d" "c");
  (* a c - d link shortcuts c - e - d; a->d then ties between b and c,
     and the name-smaller first hop wins *)
  Igp.add_link g "c" "d";
  check Alcotest.(option string) "d->c direct" (Some "c")
    (Igp.next_hops g ~src:"d" "c");
  check Alcotest.(option string) "a->d tie to b" (Some "b")
    (Igp.next_hops g ~src:"a" "d");
  Igp.add_node g "f";
  check Alcotest.(option string) "unreachable" None
    (Igp.next_hops g ~src:"a" "f")

let test_igp_self () =
  let g = square () in
  check Alcotest.(option string) "self" None (Igp.next_hops g ~src:"a" "a")

(* Random connected graphs of 2-30 nodes: a random spanning tree plus
   random extra links, nodes named in shuffled order so that name order
   and insertion order differ. *)
let arbitrary_graph =
  let gen =
    QCheck.Gen.(
      int_range 2 30 >>= fun n ->
      shuffle_l (List.init n (Printf.sprintf "n%02d")) >>= fun names ->
      let names = Array.of_list names in
      list_repeat (n - 1) (int_bound 1_000_000) >>= fun parents ->
      let node = int_bound (n - 1) in
      list_size (int_bound (2 * n)) (pair node node) >|= fun extra ->
      let tree =
        List.mapi (fun i r -> (names.(i + 1), names.(r mod (i + 1)))) parents
      in
      (Array.to_list names,
       tree @ List.map (fun (x, y) -> (names.(x), names.(y))) extra))
  in
  QCheck.make gen ~print:(fun (_, links) ->
      String.concat " " (List.map (fun (x, y) -> x ^ "-" ^ y) links))

let prop_igp_reference =
  QCheck.Test.make ~name:"bfs = dijkstra reference" ~count:200 arbitrary_graph
    (fun (nodes, links) ->
      let g = Igp.create () and r = Igp_reference.create () in
      List.iter
        (fun (x, y) ->
          if x <> y then begin
            Igp.add_link g x y;
            Igp_reference.add_link r x y
          end)
        links;
      (* [path] walks [next_hops], so paths from one source suffice. *)
      let src0 = List.hd nodes in
      List.for_all
        (fun dst ->
          Igp.path g ~src:src0 ~dst = Igp_reference.path r ~src:src0 ~dst)
        nodes
      && List.for_all
           (fun src ->
             let next_hop = Igp.next_hops g ~src in
             Igp.distances g src = Igp_reference.distances r src
             && List.for_all
                  (fun dst -> next_hop dst = Igp_reference.next_hop r ~src ~dst)
                  nodes)
           nodes)

(* ------------------------------------------------------------------ *)
(* Mininext *)

let build_simple () =
  let e = Engine.create () in
  let f = Forwarder.create e in
  let emu = Mininext.create e f ~name:"test-as" ~asn:(asn 65001) () in
  let _a = Mininext.add_pop emu "alpha" in
  let _b = Mininext.add_pop emu "beta" in
  let _c = Mininext.add_pop emu "gamma" in
  Mininext.link emu "alpha" "beta";
  Mininext.link emu "beta" "gamma";
  (e, f, emu)

let test_mininext_ibgp_mesh () =
  let e, _f, emu = build_simple () in
  Mininext.start emu;
  check Alcotest.int "3 pops" 3 (Mininext.n_pops emu);
  check Alcotest.int "full mesh sessions" 3 (Mininext.n_ibgp_sessions emu);
  Engine.run ~until:10.0 e;
  (* originate at alpha; all pops learn it over iBGP *)
  Mininext.originate_at emu "alpha" (pfx "184.164.224.0/24");
  Engine.run ~until:20.0 e;
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " has route") 1 (Mininext.routes_at emu name))
    [ "alpha"; "beta"; "gamma" ]

let test_mininext_dataplane () =
  let e, f, emu = build_simple () in
  Mininext.start emu;
  Engine.run ~until:10.0 e;
  Mininext.originate_at emu "gamma" (pfx "184.164.230.0/24");
  Engine.run ~until:20.0 e;
  Mininext.sync_fibs emu;
  (* alpha can now reach the prefix across beta (next-hop-self + IGP) *)
  let alpha = Mininext.pop_exn emu "alpha" in
  let gamma = Mininext.pop_exn emu "gamma" in
  let got = ref 0 in
  Forwarder.on_deliver f (Mininext.node_id gamma) (fun _ -> incr got);
  Forwarder.inject f
    ~at:(Mininext.node_id alpha)
    (Packet.make
       ~src:(Mininext.loopback alpha)
       ~dst:(ip "184.164.230.77") ());
  Engine.run ~until:25.0 e;
  check Alcotest.int "traffic crossed the emulated AS" 1 !got

let test_mininext_he_backbone () =
  (* §4.2: emulate the HE backbone and converge. *)
  let e = Engine.create () in
  let f = Forwarder.create e in
  let emu =
    Mininext.of_topology e f ~asn:(asn 6939) Topology_zoo.hurricane_electric
  in
  check Alcotest.int "24 pops" 24 (Mininext.n_pops emu);
  Mininext.start emu;
  check Alcotest.int "mesh size" (24 * 23 / 2) (Mininext.n_ibgp_sessions emu);
  Engine.run ~until:60.0 e;
  (* every PoP originates a prefix, as in the paper *)
  List.iteri
    (fun i p ->
      Mininext.originate_at emu (Mininext.pop_name p)
        (Prefix.make (Ipv4.of_octets 184 164 (224 + (i mod 32)) 0) 27))
    (List.filteri (fun i _ -> i < 8) (Mininext.pops emu));
  Engine.run ~until:200.0 e;
  (* all pops converge on all 8 prefixes *)
  List.iter
    (fun p ->
      check Alcotest.int
        (Mininext.pop_name p ^ " table")
        8
        (Mininext.routes_at emu (Mininext.pop_name p)))
    (Mininext.pops emu);
  check Alcotest.bool "memory measured" true (Mininext.memory_words emu > 0);
  check Alcotest.bool "container model sane" true
    (Mininext.container_model_bytes emu > 24 * 6_000_000)

let test_mininext_igp_reroute_resync () =
  (* after an intradomain link change, sync_fibs re-steers traffic *)
  let e, f, emu = build_simple () in
  Mininext.start emu;
  Engine.run ~until:10.0 e;
  Mininext.originate_at emu "gamma" (pfx "184.164.230.0/24");
  Engine.run ~until:20.0 e;
  Mininext.sync_fibs emu;
  let alpha = Mininext.pop_exn emu "alpha" in
  let gamma = Mininext.pop_exn emu "gamma" in
  let via_beta = ref 0 in
  let beta = Mininext.pop_exn emu "beta" in
  Forwarder.set_ingress_filter f (Mininext.node_id beta) (fun _ ->
      incr via_beta;
      true);
  let got = ref 0 in
  Forwarder.on_deliver f (Mininext.node_id gamma) (fun _ -> incr got);
  let send () =
    Forwarder.inject f
      ~at:(Mininext.node_id alpha)
      (Packet.make ~src:(Mininext.loopback alpha) ~dst:(ip "184.164.230.1") ());
    Engine.run_for e 5.0
  in
  send ();
  check Alcotest.int "delivered via beta (the only path)" 1 !got;
  check Alcotest.bool "crossed beta" true (!via_beta > 0);
  (* a direct alpha-gamma link (cost 1 < 2) takes over *)
  Mininext.link emu "alpha" "gamma";
  Mininext.sync_fibs emu;
  let beta_before = !via_beta in
  send ();
  check Alcotest.int "still delivered" 2 !got;
  check Alcotest.int "no longer via beta" beta_before !via_beta

let test_mininext_external_gateway_fib () =
  let e, f, emu = build_simple () in
  Mininext.start emu;
  Engine.run ~until:10.0 e;
  (* a mux session at gamma brings an external route *)
  let mux =
    Peering_router.Router.create e ~asn:(asn 47065)
      ~router_id:(ip "100.65.9.1") ()
  in
  let gamma = Mininext.pop_exn emu "gamma" in
  ignore
    (Peering_router.Router.connect e
       (mux, ip "100.65.9.1")
       (Mininext.router gamma, Mininext.loopback gamma));
  Engine.run_for e 10.0;
  Peering_router.Router.originate mux (pfx "20.7.0.0/16");
  Engine.run_for e 30.0;
  check Alcotest.int "external route at alpha" 1
    (Mininext.routes_at emu "alpha");
  Forwarder.add_node f "ext";
  Forwarder.add_address f "ext" (ip "20.7.0.1");
  Forwarder.set_route f "ext" (pfx "20.7.0.0/16") Fib.Local;
  Mininext.external_gateway emu ~pop:"gamma" ~peer_addr:(ip "100.65.9.1")
    ~node:"ext";
  Mininext.sync_fibs emu;
  let got = ref 0 in
  Forwarder.on_deliver f "ext" (fun _ -> incr got);
  let alpha = Mininext.pop_exn emu "alpha" in
  Forwarder.inject f
    ~at:(Mininext.node_id alpha)
    (Packet.make ~src:(Mininext.loopback alpha) ~dst:(ip "20.7.0.9") ());
  Engine.run_for e 5.0;
  check Alcotest.int "external destination reached from interior PoP" 1 !got

let test_mininext_abilene () =
  let e = Engine.create () in
  let f = Forwarder.create e in
  let emu =
    Mininext.of_topology e f ~asn:(asn 11537)
      Peering_topo.Topology_zoo.abilene
  in
  Mininext.start emu;
  Engine.run ~until:30.0 e;
  Mininext.originate_at emu "Seattle" (pfx "184.164.250.0/24");
  Engine.run_for e 60.0;
  List.iter
    (fun p ->
      check Alcotest.int (Mininext.pop_name p) 1
        (Mininext.routes_at emu (Mininext.pop_name p)))
    (Mininext.pops emu)

let test_mininext_duplicate_pop () =
  let e = Engine.create () in
  let f = Forwarder.create e in
  let emu = Mininext.create e f ~name:"dup" ~asn:(asn 65001) () in
  ignore (Mininext.add_pop emu "x");
  match Mininext.add_pop emu "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate pop accepted"

let () =
  Alcotest.run "emu"
    [ ( "igp",
        [ tc "shortest" `Quick test_igp_shortest;
          tc "reroute" `Quick test_igp_reroute_on_failure;
          tc "self" `Quick test_igp_self;
          QCheck_alcotest.to_alcotest prop_igp_reference
        ] );
      ( "mininext",
        [ tc "ibgp mesh" `Quick test_mininext_ibgp_mesh;
          tc "dataplane" `Quick test_mininext_dataplane;
          tc "HE backbone" `Slow test_mininext_he_backbone;
          tc "igp reroute + resync" `Quick test_mininext_igp_reroute_resync;
          tc "external gateway" `Quick test_mininext_external_gateway_fib;
          tc "abilene" `Quick test_mininext_abilene;
          tc "duplicate pop" `Quick test_mininext_duplicate_pop
        ] )
    ]
