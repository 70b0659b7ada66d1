open Peering_net
open Peering_bgp
open Peering_router
module Engine = Peering_sim.Engine

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let parsed = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Lines.error_to_string e)

let mk engine a rid = Router.create engine ~asn:(asn a) ~router_id:(ip rid) ()

(* ------------------------------------------------------------------ *)
(* Router *)

let test_two_routers_exchange () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" in
  Router.originate r1 (pfx "10.1.0.0/16");
  ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
  Engine.run ~until:5.0 e;
  (match Router.best_route r2 (pfx "10.1.0.0/16") with
  | Some r ->
    check Alcotest.(list int) "path has AS 1" [ 1 ]
      (List.map Asn.to_int (As_path.to_asns r.Route.attrs.Attrs.as_path));
    check Alcotest.string "next hop rewritten" "10.0.0.1"
      (Ipv4.to_string r.Route.attrs.Attrs.next_hop)
  | None -> Alcotest.fail "route not learned");
  (* origination after establishment also propagates *)
  Router.originate r2 (pfx "10.2.0.0/16");
  Engine.run ~until:10.0 e;
  check Alcotest.bool "reverse direction" true
    (Router.best_route r1 (pfx "10.2.0.0/16") <> None)

let test_chain_propagation () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" and r3 = mk e 3 "10.0.0.3" in
  ignore (Router.connect e (r1, ip "10.0.12.1") (r2, ip "10.0.12.2"));
  ignore (Router.connect e (r2, ip "10.0.23.2") (r3, ip "10.0.23.3"));
  Engine.run ~until:5.0 e;
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:10.0 e;
  match Router.best_route r3 (pfx "10.1.0.0/16") with
  | Some r ->
    check Alcotest.(list int) "two-hop path" [ 2; 1 ]
      (List.map Asn.to_int (As_path.to_asns r.Route.attrs.Attrs.as_path))
  | None -> Alcotest.fail "route did not traverse the chain"

let test_loop_prevention () =
  (* triangle of eBGP routers: routes must not loop *)
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" and r3 = mk e 3 "10.0.0.3" in
  ignore (Router.connect e (r1, ip "10.0.12.1") (r2, ip "10.0.12.2"));
  ignore (Router.connect e (r2, ip "10.0.23.2") (r3, ip "10.0.23.3"));
  ignore (Router.connect e (r3, ip "10.0.31.3") (r1, ip "10.0.31.1"));
  Engine.run ~until:5.0 e;
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:20.0 e;
  (* r1 must not learn its own prefix back *)
  match Router.best_route r1 (pfx "10.1.0.0/16") with
  | Some r -> check Alcotest.bool "kept local" true (r.Route.source = None)
  | None -> Alcotest.fail "lost own route"

let test_withdraw_propagates () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" in
  ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
  Engine.run ~until:5.0 e;
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:10.0 e;
  check Alcotest.bool "learned" true (Router.best_route r2 (pfx "10.1.0.0/16") <> None);
  Router.withdraw_network r1 (pfx "10.1.0.0/16");
  Engine.run ~until:15.0 e;
  check Alcotest.bool "withdrawn" true (Router.best_route r2 (pfx "10.1.0.0/16") = None)

let test_export_policy_filtering () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" in
  ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
  Engine.run ~until:5.0 e;
  (* r1 refuses to export 10.2/16 *)
  Router.set_export_policy r1 (ip "10.0.0.2")
    (Policy.of_entries
       [ { Policy.seq = 5;
           decision = Policy.Deny;
           conds = [ Policy.Prefix_in [ (pfx "10.2.0.0/16", 16, 16) ] ];
           actions = []
         };
         { Policy.seq = 10; decision = Policy.Permit; conds = []; actions = [] }
       ]);
  Router.originate r1 (pfx "10.1.0.0/16");
  Router.originate r1 (pfx "10.2.0.0/16");
  Engine.run ~until:10.0 e;
  check Alcotest.bool "permitted prefix flows" true
    (Router.best_route r2 (pfx "10.1.0.0/16") <> None);
  check Alcotest.bool "denied prefix filtered" true
    (Router.best_route r2 (pfx "10.2.0.0/16") = None);
  check Alcotest.(list string) "adj-out reflects filter" [ "10.1.0.0/16" ]
    (List.map Prefix.to_string (Router.advertised_to r1 (ip "10.0.0.2")))

let test_no_export_community () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" and r3 = mk e 3 "10.0.0.3" in
  ignore (Router.connect e (r1, ip "10.0.12.1") (r2, ip "10.0.12.2"));
  ignore (Router.connect e (r2, ip "10.0.23.2") (r3, ip "10.0.23.3"));
  Engine.run ~until:5.0 e;
  (* r2 tags what it hears from r1 with NO_EXPORT *)
  Router.set_import_policy r2 (ip "10.0.12.1")
    (Policy.of_entries
       [ { Policy.seq = 10;
           decision = Policy.Permit;
           conds = [];
           actions = [ Policy.Add_community Community.no_export ]
         }
       ]);
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:10.0 e;
  check Alcotest.bool "neighbor hears it" true
    (Router.best_route r2 (pfx "10.1.0.0/16") <> None);
  check Alcotest.bool "not beyond" true
    (Router.best_route r3 (pfx "10.1.0.0/16") = None)

let test_ibgp_no_reexport () =
  (* three iBGP routers in a line: r3 must NOT learn r1's route through
     r2 (full-mesh rule). *)
  let e = Engine.create () in
  let r1 = mk e 10 "10.0.0.1" and r2 = mk e 10 "10.0.0.2" and r3 = mk e 10 "10.0.0.3" in
  ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
  ignore (Router.connect e (r2, ip "10.0.0.2") (r3, ip "10.0.0.3"));
  Engine.run ~until:5.0 e;
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:10.0 e;
  check Alcotest.bool "direct iBGP neighbor learns" true
    (Router.best_route r2 (pfx "10.1.0.0/16") <> None);
  check Alcotest.bool "not re-exported over iBGP" true
    (Router.best_route r3 (pfx "10.1.0.0/16") = None)

let test_session_teardown_flushes () =
  let e = Engine.create () in
  let r1 = mk e 1 "10.0.0.1" and r2 = mk e 2 "10.0.0.2" in
  let s = Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2") in
  Engine.run ~until:5.0 e;
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run ~until:10.0 e;
  Session.drop s ~reason:"test";
  Engine.run ~until:15.0 e;
  check Alcotest.bool "routes flushed on close" true
    (Router.best_route r2 (pfx "10.1.0.0/16") = None)

let test_mrai_batches () =
  (* MRAI coalesces repeated changes to the same prefix inside the
     window: a flapping prefix produces far fewer messages *)
  let run mrai =
    let e = Engine.create () in
    let r1 =
      Router.create e ~asn:(asn 1) ~router_id:(ip "10.0.0.1") ~mrai ()
    in
    let r2 = mk e 2 "10.0.0.2" in
    ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
    Engine.run ~until:5.0 e;
    for _ = 1 to 15 do
      Router.originate r1 (pfx "10.1.0.0/16");
      Engine.run_for e 0.2;
      Router.withdraw_network r1 (pfx "10.1.0.0/16");
      Engine.run_for e 0.2
    done;
    Router.originate r1 (pfx "10.1.0.0/16");
    Engine.run_for e 120.0;
    (Router.table_size r2, Router.updates_sent r1)
  in
  let table_plain, sent_plain = run 0.0 in
  let table_mrai, sent_mrai = run 10.0 in
  check Alcotest.int "final state without MRAI" 1 table_plain;
  check Alcotest.int "final state with MRAI" 1 table_mrai;
  check Alcotest.bool "MRAI coalesces the churn" true
    (sent_mrai * 3 < sent_plain)

let test_mrai_withdraw_not_lost () =
  let e = Engine.create () in
  let r1 = Router.create e ~asn:(asn 1) ~router_id:(ip "10.0.0.1") ~mrai:5.0 () in
  let r2 = mk e 2 "10.0.0.2" in
  ignore (Router.connect e (r1, ip "10.0.0.1") (r2, ip "10.0.0.2"));
  Engine.run ~until:5.0 e;
  (* announce + withdraw inside one MRAI window: final state wins *)
  Router.originate r1 (pfx "10.1.0.0/16");
  Engine.run_for e 0.5;
  Router.withdraw_network r1 (pfx "10.1.0.0/16");
  Engine.run_for e 60.0;
  check Alcotest.bool "peer converges to withdrawn" true
    (Router.best_route r2 (pfx "10.1.0.0/16") = None)

(* ------------------------------------------------------------------ *)
(* Memory (Fig. 2 machinery) *)

let test_memory_model_linear () =
  let m peers prefixes =
    Memory.model_bytes ~peers ~prefixes_per_peer:prefixes
  in
  (* linear in prefixes *)
  let base = m 5 0 in
  let d1 = m 5 10_000 - base and d2 = m 5 20_000 - base in
  check Alcotest.int "linearity" (2 * d1) d2;
  (* more peers cost more *)
  check Alcotest.bool "peer slope" true (m 20 100_000 > m 5 100_000);
  (* Internet-scale table with 20 peers lands in the GB range the
     paper's figure shows *)
  let internet = m 20 500_000 in
  check Alcotest.bool "500K/20p order of magnitude" true
    (internet > 1_000_000_000 && internet < 4_000_000_000)

let test_memory_measured_grows () =
  let r1 = Memory.fill_rib ~peers:2 ~prefixes_per_peer:200 in
  let r2 = Memory.fill_rib ~peers:2 ~prefixes_per_peer:2000 in
  let r3 = Memory.fill_rib ~peers:8 ~prefixes_per_peer:2000 in
  let w1 = Memory.measured_words r1
  and w2 = Memory.measured_words r2
  and w3 = Memory.measured_words r3 in
  check Alcotest.bool "grows with prefixes" true (w2 > 5 * w1);
  check Alcotest.bool "grows with peers" true (w3 > 2 * w2);
  check Alcotest.int "rib content" 2000 (Rib.prefix_count r2);
  check Alcotest.int "adj-in routes" 16_000 (Rib.route_count r3)

(* ------------------------------------------------------------------ *)
(* Config *)

let sample_config =
  {|
! PEERING client configuration
router bgp 47065
 bgp router-id 184.164.224.1
 network 184.164.224.0/24
 neighbor 100.65.0.1 remote-as 2914
 neighbor 100.65.0.1 route-map EXPORT out
 neighbor 100.65.0.2 remote-as 3356
ip prefix-list OURS seq 5 permit 184.164.224.0/19 le 24
route-map EXPORT permit 10
 match ip address prefix-list OURS
 set as-path prepend 47065 2
 set community 47065:1000
route-map EXPORT deny 20
|}

let test_config_parse () =
  let c = parsed @@ Config.parse sample_config in
  match Config.bgp c with
  | None -> Alcotest.fail "no bgp block"
  | Some bgp ->
    check Alcotest.int "asn" 47065 (Asn.to_int bgp.Config.asn);
    check Alcotest.(option string) "router id" (Some "184.164.224.1")
      (Option.map Ipv4.to_string bgp.Config.router_id);
    check Alcotest.(list string) "networks" [ "184.164.224.0/24" ]
      (List.map Prefix.to_string bgp.Config.networks);
    check Alcotest.int "neighbors" 2 (List.length bgp.Config.neighbors);
    let n1 = List.hd bgp.Config.neighbors in
    check Alcotest.int "remote-as" 2914 (Asn.to_int n1.Config.remote_as);
    check Alcotest.(option string) "route-map out" (Some "EXPORT")
      n1.Config.route_map_out;
    check Alcotest.(list string) "route maps" [ "EXPORT" ]
      (Config.route_map_names c)

let test_config_compile_route_map () =
  let c = parsed @@ Config.parse sample_config in
  match Config.compile_route_map c "EXPORT" with
  | Error e -> Alcotest.fail e
  | Ok policy ->
    let inside =
      Route.make
        (pfx "184.164.224.0/24")
        (Attrs.make ~as_path:(As_path.of_asns [ asn 47065 ])
           ~next_hop:(ip "10.0.0.1") ())
    in
    (match Policy.apply policy inside with
    | Some r ->
      check Alcotest.int "prepended twice" 3
        (As_path.length r.Route.attrs.Attrs.as_path);
      check Alcotest.bool "community set" true
        (Attrs.has_community (Community.make 47065 1000) r.Route.attrs)
    | None -> Alcotest.fail "inside prefix denied");
    let outside =
      Route.make (pfx "8.8.8.0/24")
        (Attrs.make ~as_path:(As_path.of_asns [ asn 1 ])
           ~next_hop:(ip "10.0.0.1") ())
    in
    check Alcotest.bool "outside denied" true (Policy.apply policy outside = None)

let test_config_errors () =
  let bad l =
    match Config.parse l with Error _ -> true | Ok _ -> false
  in
  check Alcotest.bool "garbage" true (bad "nonsense here");
  check Alcotest.bool "bad prefix" true
    (bad "router bgp 1\n network 1.2.3.4/99");
  check Alcotest.bool "route-map on undeclared neighbor" true
    (bad "router bgp 1\n neighbor 10.0.0.1 route-map X in");
  check Alcotest.bool "undefined route map reference" true
    (match
       Config.compile_route_map
         (parsed @@ Config.parse "router bgp 1")
         "NOPE"
     with
    | Error _ -> true
    | Ok _ -> false)

let test_config_parse_errors () =
  let err text =
    match Config.parse text with
    | Error e -> Lines.error_to_string e
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
  in
  check Alcotest.string "duplicate neighbor" "line 3: duplicate neighbor"
    (err
       "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 \
        remote-as 3");
  check Alcotest.string "duplicate route-map seq"
    "line 2: duplicate route-map sequence"
    (err "route-map X permit 10\nroute-map X deny 10");
  check Alcotest.string "bad ge/le options" "line 1: bad prefix-list options"
    (err "ip prefix-list X seq 5 permit 10.0.0.0/8 ge");
  check Alcotest.string "unknown ge/le keyword"
    "line 1: bad prefix-list options"
    (err "ip prefix-list X seq 5 permit 10.0.0.0/8 upto 24");
  check Alcotest.string "unknown top-level statement"
    "line 1: unknown top-level statement" (err "frobnicate the bits");
  check Alcotest.string "unknown bgp statement"
    "line 2: unknown statement in router bgp block"
    (err "router bgp 1\n synchronization");
  check Alcotest.string "unknown route-map statement"
    "line 2: unknown statement in route-map block"
    (err "route-map X permit 10\n set weight 100");
  check Alcotest.string "second bgp block" "line 2: second router bgp block"
    (err "router bgp 1\nrouter bgp 2");
  check Alcotest.string "bad route-map action"
    "line 1: route-map action must be permit|deny"
    (err "route-map X allow 10");
  check Alcotest.string "bad direction"
    "line 3: route-map direction must be in|out"
    (err
       "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 \
        route-map X both")

let mk_route communities =
  let attrs =
    List.fold_left
      (fun a c -> Attrs.add_community c a)
      (Attrs.make ~as_path:(As_path.of_asns [ asn 1 ]) ~next_hop:(ip "10.0.0.1") ())
      communities
  in
  Route.make (pfx "184.164.224.0/24") attrs

let test_config_set_community_semantics () =
  let compile text =
    match Config.compile_route_map (parsed @@ Config.parse text) "SET" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let old_c = Community.make 1 100 and new_c = Community.make 65000 1 in
  (* non-additive: replaces the community list *)
  let replace = compile "route-map SET permit 10\n set community 65000:1" in
  (match Policy.apply replace (mk_route [ old_c ]) with
  | Some r ->
    check Alcotest.bool "new community present" true
      (Attrs.has_community new_c r.Route.attrs);
    check Alcotest.bool "old community replaced" false
      (Attrs.has_community old_c r.Route.attrs)
  | None -> Alcotest.fail "replace: denied");
  (* additive: appends to the community list *)
  let additive =
    compile "route-map SET permit 10\n set community 65000:1 additive"
  in
  match Policy.apply additive (mk_route [ old_c ]) with
  | Some r ->
    check Alcotest.bool "new community added" true
      (Attrs.has_community new_c r.Route.attrs);
    check Alcotest.bool "old community kept" true
      (Attrs.has_community old_c r.Route.attrs)
  | None -> Alcotest.fail "additive: denied"

let test_config_instantiate () =
  let e = Engine.create () in
  let c = parsed @@ Config.parse sample_config in
  match Config.instantiate e c with
  | Error err -> Alcotest.fail err
  | Ok r ->
    check Alcotest.int "asn" 47065 (Asn.to_int (Router.asn r));
    check Alcotest.(list string) "originated" [ "184.164.224.0/24" ]
      (List.map Prefix.to_string (Router.networks r))

let () =
  Alcotest.run "router"
    [ ( "router",
        [ tc "exchange" `Quick test_two_routers_exchange;
          tc "chain" `Quick test_chain_propagation;
          tc "loop prevention" `Quick test_loop_prevention;
          tc "withdraw" `Quick test_withdraw_propagates;
          tc "export policy" `Quick test_export_policy_filtering;
          tc "no-export" `Quick test_no_export_community;
          tc "ibgp no re-export" `Quick test_ibgp_no_reexport;
          tc "teardown flush" `Quick test_session_teardown_flushes;
          tc "mrai batches" `Quick test_mrai_batches;
          tc "mrai withdraw" `Quick test_mrai_withdraw_not_lost
        ] );
      ( "memory",
        [ tc "model linear" `Quick test_memory_model_linear;
          tc "measured grows" `Quick test_memory_measured_grows
        ] );
      ( "config",
        [ tc "parse" `Quick test_config_parse;
          tc "compile route-map" `Quick test_config_compile_route_map;
          tc "errors" `Quick test_config_errors;
          tc "parse error paths" `Quick test_config_parse_errors;
          tc "set community semantics" `Quick test_config_set_community_semantics;
          tc "instantiate" `Quick test_config_instantiate
        ] )
    ]
