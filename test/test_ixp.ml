open Peering_net
open Peering_bgp
open Peering_ixp
module Rng = Peering_sim.Rng
module Gen = Peering_topo.Gen

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let mk_route ?(communities = []) p origin =
  Route.make
    (pfx p)
    (Attrs.make
       ~as_path:(As_path.of_asns [ asn origin ])
       ~communities ~next_hop:(ip "192.0.2.1") ())

(* ------------------------------------------------------------------ *)
(* Route server *)

let rs_with_members members =
  let rs = Route_server.create () in
  List.iter (fun m -> Route_server.connect rs (asn m)) members;
  rs

let test_rs_redistribution () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  let deliveries, _ =
    Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10)
  in
  check Alcotest.(list int) "everyone but sender"
    [ 20; 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) deliveries);
  check Alcotest.int "retained" 2 (Route_server.route_count rs);
  check Alcotest.int "member 20 holds it" 1
    (List.length (Route_server.routes_for rs (asn 20)))

let test_rs_transparent () =
  (* the server must not insert its own ASN in the path *)
  let rs = rs_with_members [ 10; 20 ] in
  match Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10) with
  | [ (_, r) ], [] ->
    check Alcotest.(list int) "path untouched" [ 10 ]
      (List.map Asn.to_int (As_path.to_asns r.Route.attrs.Attrs.as_path))
  | _ -> Alcotest.fail "expected one delivery"

let test_rs_block_community () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  (* 0:20 = don't send to member 20 *)
  let r = mk_route ~communities:[ Community.make 0 20 ] "10.1.0.0/16" 10 in
  let deliveries, _ = Route_server.announce rs ~from:(asn 10) r in
  check Alcotest.(list int) "20 excluded" [ 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) deliveries)

let test_rs_whitelist_community () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  (* 0:0 blocks all, 6777:30 whitelists member 30 *)
  let r =
    mk_route
      ~communities:[ Community.make 0 0; Community.make 6777 30 ]
      "10.1.0.0/16" 10
  in
  let deliveries, _ = Route_server.announce rs ~from:(asn 10) r in
  check Alcotest.(list int) "only 30" [ 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) deliveries);
  (* control communities scrubbed before redistribution *)
  match deliveries with
  | [ (_, out) ] ->
    check Alcotest.int "scrubbed" 0 (List.length out.Route.attrs.Attrs.communities)
  | _ -> Alcotest.fail "one delivery expected"

let test_rs_withdraw () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  ignore (Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10));
  let w = Route_server.withdraw rs ~from:(asn 10) (pfx "10.1.0.0/16") in
  check Alcotest.int "withdrawals" 2 (List.length w);
  check Alcotest.int "tables empty" 0 (Route_server.route_count rs);
  check Alcotest.int "idempotent" 0
    (List.length (Route_server.withdraw rs ~from:(asn 10) (pfx "10.1.0.0/16")))

(* Two members announce one prefix; one withdraws.  Only its route is
   retracted: the third member keeps the other announcer's route. *)
let test_rs_withdraw_keeps_others () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  ignore (Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10));
  ignore (Route_server.announce rs ~from:(asn 20) (mk_route "10.1.0.0/16" 20));
  check Alcotest.int "30 holds both" 2
    (List.length (Route_server.routes_for rs (asn 30)));
  let w = Route_server.withdraw rs ~from:(asn 10) (pfx "10.1.0.0/16") in
  check Alcotest.(list int) "withdrawn at 20 and 30" [ 20; 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) w);
  let origins m =
    List.map
      (fun r ->
        match As_path.to_asns r.Route.attrs.Attrs.as_path with
        | o :: _ -> Asn.to_int o
        | [] -> Alcotest.fail "empty path")
      (Route_server.routes_for rs (asn m))
  in
  check Alcotest.(list int) "30 keeps 20's route" [ 20 ] (origins 30);
  check Alcotest.(list int) "20 holds nothing" [] (origins 20);
  check Alcotest.(list int) "10 keeps 20's route" [ 20 ] (origins 10);
  check Alcotest.int "retained" 2 (Route_server.route_count rs)

(* A re-announcement that now blocks a member withdraws the copy that
   member already holds, so its later withdraw skips that member. *)
let test_rs_reannounce_blocks () =
  let rs = rs_with_members [ 10; 20; 30 ] in
  ignore (Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10));
  let r = mk_route ~communities:[ Community.make 0 20 ] "10.1.0.0/16" 10 in
  let deliveries, withdrawals = Route_server.announce rs ~from:(asn 10) r in
  check Alcotest.(list int) "re-announced to 30 only" [ 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) deliveries);
  check Alcotest.(list int) "withdrawn at 20" [ 20 ]
    (List.map (fun (m, _) -> Asn.to_int m) withdrawals);
  check Alcotest.int "20 holds nothing" 0
    (List.length (Route_server.routes_for rs (asn 20)));
  check Alcotest.int "30 holds one" 1
    (List.length (Route_server.routes_for rs (asn 30)));
  let w = Route_server.withdraw rs ~from:(asn 10) (pfx "10.1.0.0/16") in
  check Alcotest.(list int) "withdrawn at 30 only" [ 30 ]
    (List.map (fun (m, _) -> Asn.to_int m) w)

(* Each member's view, folded from what the server returns, equals
   {!Route_server.routes_for} after every step, including
   re-announcements whose communities block and then unblock a
   member. *)
let test_rs_member_views () =
  let members = [ 10; 20; 30 ] in
  let rs = rs_with_members members in
  let p = "10.1.0.0/16" in
  (* member -> (prefix, origin) pairs it holds *)
  let views = Hashtbl.create 4 in
  let view m = Option.value (Hashtbl.find_opt views m) ~default:[] in
  let key from prefix = (Prefix.to_string prefix, from) in
  let deliver from (m, (r : Route.t)) =
    let k = key from r.Route.prefix in
    Hashtbl.replace views (Asn.to_int m)
      (k :: List.filter (( <> ) k) (view (Asn.to_int m)))
  in
  let retract from (m, prefix) =
    Hashtbl.replace views (Asn.to_int m)
      (List.filter (( <> ) (key from prefix)) (view (Asn.to_int m)))
  in
  let held m =
    List.sort compare
      (List.map
         (fun (r : Route.t) ->
           match As_path.to_asns r.Route.attrs.Attrs.as_path with
           | o :: _ -> key (Asn.to_int o) r.Route.prefix
           | [] -> Alcotest.fail "empty path")
         (Route_server.routes_for rs (asn m)))
  in
  let agree step =
    List.iter
      (fun m ->
        check
          Alcotest.(list (pair string int))
          (Printf.sprintf "%s: member %d" step m)
          (held m)
          (List.sort compare (view m)))
      members
  in
  let announce from communities step =
    let deliveries, withdrawals =
      Route_server.announce rs ~from:(asn from) (mk_route ~communities p from)
    in
    List.iter (deliver from) deliveries;
    List.iter (retract from) withdrawals;
    agree step
  in
  announce 10 [] "announce";
  announce 10 [ Community.make 0 20 ] "block 20";
  announce 20 [] "second origin";
  announce 10 [ Community.make 0 20; Community.make 0 30 ] "block 20 and 30";
  announce 10 [] "unblock";
  List.iter (retract 10) (Route_server.withdraw rs ~from:(asn 10) (pfx p));
  agree "withdraw"

let test_rs_disconnect () =
  let rs = rs_with_members [ 10; 20 ] in
  ignore (Route_server.announce rs ~from:(asn 10) (mk_route "10.1.0.0/16" 10));
  let w = Route_server.disconnect rs (asn 10) in
  check Alcotest.int "implicit withdrawals" 1 (List.length w);
  check Alcotest.int "members" 1 (Route_server.n_members rs)

(* ------------------------------------------------------------------ *)
(* Fabric *)

let test_fabric_census () =
  let rng = Rng.create 5 in
  let f = Fabric.create ~name:"TEST-IX" ~country:Country.nl ~rng () in
  List.iteri
    (fun i policy ->
      Fabric.add_member f ~policy (asn (100 + i)))
    [ Peering_policy.Open; Peering_policy.Open; Peering_policy.Closed;
      Peering_policy.Case_by_case; Peering_policy.Unlisted ];
  Fabric.add_member f ~uses_route_server:true ~policy:Peering_policy.Open
    (asn 200);
  check Alcotest.int "members" 6 (Fabric.n_members f);
  check Alcotest.(list int) "rs users" [ 200 ]
    (List.map Asn.to_int (Fabric.route_server_users f));
  let census = Fabric.policy_census f in
  let count p = List.assoc p census in
  check Alcotest.int "open" 2 (count Peering_policy.Open);
  check Alcotest.int "closed" 1 (count Peering_policy.Closed);
  check Alcotest.int "case" 1 (count Peering_policy.Case_by_case);
  check Alcotest.int "unlisted" 1 (count Peering_policy.Unlisted)

let test_fabric_requests () =
  let rng = Rng.create 5 in
  let f = Fabric.create ~name:"TEST-IX" ~country:Country.nl ~rng () in
  Fabric.add_member f ~policy:Peering_policy.Closed (asn 1);
  (* closed never accepts *)
  (match Fabric.request_peering f ~target:(asn 1) with
  | Fabric.Accepted -> Alcotest.fail "closed member accepted"
  | _ -> ());
  (* responses are sticky *)
  let r1 = Fabric.request_peering f ~target:(asn 1) in
  let r2 = Fabric.request_peering f ~target:(asn 1) in
  check Alcotest.bool "sticky" true (r1 = r2);
  (* open members mostly accept: statistical check over many members *)
  let f2 = Fabric.create ~name:"T2" ~country:Country.nl ~rng () in
  for i = 1 to 200 do
    Fabric.add_member f2 ~policy:Peering_policy.Open (asn i)
  done;
  let accepted =
    List.length
      (List.filter
         (fun i -> Fabric.request_peering f2 ~target:(asn i) = Fabric.Accepted)
         (List.init 200 (fun i -> i + 1)))
  in
  check Alcotest.bool "vast majority accepted" true (accepted > 160);
  check Alcotest.int "bilateral peers tracked" accepted
    (List.length (Fabric.bilateral_peers f2))

(* ------------------------------------------------------------------ *)
(* AMS-IX calibration *)

let world =
  lazy
    (Gen.generate
       { Gen.default_params with
         Gen.n_stub = 1500;
         n_small_transit = 150;
         target_prefixes = 8000
       })

let test_amsix_census () =
  let w = Lazy.force world in
  let rng = Rng.create 42 in
  let f = Amsix.build ~rng w in
  check Alcotest.int "669 members" 669 (Fabric.n_members f);
  check Alcotest.int "554 on route server" 554
    (List.length (Fabric.route_server_users f));
  let census = Fabric.policy_census f in
  let count p = List.assoc p census in
  check Alcotest.int "48 open" 48 (count Peering_policy.Open);
  check Alcotest.int "12 closed" 12 (count Peering_policy.Closed);
  check Alcotest.int "40 case-by-case" 40 (count Peering_policy.Case_by_case);
  check Alcotest.int "15 unlisted" 15 (count Peering_policy.Unlisted)

let test_amsix_member_quality () =
  let w = Lazy.force world in
  let rng = Rng.create 42 in
  let f = Amsix.build ~rng w in
  (* many distinct countries *)
  let countries = Amsix.member_countries f w in
  check Alcotest.bool "tens of countries" true
    (Country.Set.cardinal countries >= 30);
  (* a decent share of the top-100 cone ASes are members *)
  let top100 =
    Asn.Set.of_list (Peering_topo.Customer_cone.top w.Gen.graph 100)
  in
  let members_in_top100 =
    List.filter (fun (m : Fabric.member) -> Asn.Set.mem m.asn top100)
      (Fabric.members f)
  in
  check Alcotest.bool "top-100 represented" true
    (List.length members_in_top100 >= 15)

let () =
  Alcotest.run "ixp"
    [ ( "route-server",
        [ tc "redistribution" `Quick test_rs_redistribution;
          tc "transparent" `Quick test_rs_transparent;
          tc "block community" `Quick test_rs_block_community;
          tc "whitelist community" `Quick test_rs_whitelist_community;
          tc "withdraw" `Quick test_rs_withdraw;
          tc "withdraw keeps other members' routes" `Quick
            test_rs_withdraw_keeps_others;
          tc "re-announce retracts blocked copy" `Quick
            test_rs_reannounce_blocks;
          tc "member views follow the returned updates" `Quick
            test_rs_member_views;
          tc "disconnect" `Quick test_rs_disconnect
        ] );
      ( "fabric",
        [ tc "census" `Quick test_fabric_census;
          tc "requests" `Quick test_fabric_requests
        ] );
      ( "amsix",
        [ tc "census calibration" `Quick test_amsix_census;
          tc "member quality" `Quick test_amsix_member_quality
        ] )
    ]
