open Peering_net
open Peering_topo

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* As_graph *)

let diamond () =
  (* 1 (tier1) over 2 and 3 (transit), both serving stub 4; 2-3 peer. *)
  let g = As_graph.create () in
  List.iter (fun (a, k) -> As_graph.add_as g ~kind:k (asn a))
    [ (1, As_graph.Tier1); (2, As_graph.Small_transit);
      (3, As_graph.Small_transit); (4, As_graph.Stub) ];
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 2);
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 3);
  As_graph.add_edge g (asn 2) Relationship.Peer (asn 3);
  As_graph.add_edge g (asn 2) Relationship.Customer (asn 4);
  As_graph.add_edge g (asn 3) Relationship.Customer (asn 4);
  As_graph.originate g (asn 4) (pfx "10.4.0.0/16");
  g

let test_graph_edges () =
  let g = diamond () in
  check Alcotest.int "ases" 4 (As_graph.n_ases g);
  check Alcotest.int "edges" 5 (As_graph.n_edges g);
  check Alcotest.(list int) "customers of 2" [ 4 ]
    (List.map Asn.to_int (As_graph.customers g (asn 2)));
  check Alcotest.(list int) "providers of 4" [ 2; 3 ]
    (List.map Asn.to_int (As_graph.providers g (asn 4)));
  check Alcotest.(list (pair int bool)) "neighbors of 3" [ (1, false); (2, true); (4, false) ]
    (List.map
       (fun (a, r) -> (Asn.to_int a, Relationship.equal r Relationship.Peer))
       (As_graph.neighbors g (asn 3)));
  (* inverse view *)
  check Alcotest.bool "relationship inverse" true
    (As_graph.relationship g (asn 4) (asn 2) = Some Relationship.Provider);
  check Alcotest.(list string) "prefixes of 4" [ "10.4.0.0/16" ]
    (List.map Prefix.to_string (As_graph.prefixes_of g (asn 4)))

let test_graph_validation () =
  let g = diamond () in
  (match As_graph.add_edge g (asn 2) Relationship.Peer (asn 3) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate edge accepted");
  (match As_graph.add_as g (asn 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate AS accepted");
  match As_graph.add_edge g (asn 1) Relationship.Peer (asn 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self loop accepted"

(* ------------------------------------------------------------------ *)
(* Relationship / Gao-Rexford export rules *)

let test_export_rules () =
  let open Relationship in
  (* own and customer routes go everywhere *)
  check Alcotest.bool "own->peer" true (exports_to ~learned_from:None Peer);
  check Alcotest.bool "cust->provider" true
    (exports_to ~learned_from:(Some Customer) Provider);
  (* peer/provider routes only to customers *)
  check Alcotest.bool "peer->peer" false (exports_to ~learned_from:(Some Peer) Peer);
  check Alcotest.bool "peer->cust" true
    (exports_to ~learned_from:(Some Peer) Customer);
  check Alcotest.bool "prov->prov" false
    (exports_to ~learned_from:(Some Provider) Provider);
  check Alcotest.bool "prov->cust" true
    (exports_to ~learned_from:(Some Provider) Customer)

(* ------------------------------------------------------------------ *)
(* Propagation *)

let test_propagation_reaches_all () =
  let g = diamond () in
  let r = Propagation.propagate g [ Propagation.announce (asn 4) (pfx "10.4.0.0/16") ] in
  check Alcotest.int "all four reach" 4 (Propagation.reachable_count r);
  (* tier1 gets it via a customer chain *)
  match Propagation.route_at r (asn 1) with
  | Some rt ->
    check Alcotest.bool "customer route at tier1" true
      (rt.Propagation.learned_over = Some Relationship.Customer);
    check Alcotest.int "two hops" 2 (List.length rt.Propagation.path)
  | None -> Alcotest.fail "tier1 unreachable"

let test_propagation_valley_free () =
  (* stub 5 hanging off 2 must NOT give transit to its providers'
     routes; build: 2 also provider of 5; announce from 4. 5 should
     receive (provider route) but 5's other provider link shouldn't
     matter. Key check: a peer route never re-exported to peers. *)
  let g = diamond () in
  As_graph.add_as g ~kind:As_graph.Stub (asn 5);
  As_graph.add_edge g (asn 2) Relationship.Customer (asn 5);
  let r = Propagation.propagate g [ Propagation.announce (asn 4) (pfx "10.4.0.0/16") ] in
  (match Propagation.route_at r (asn 5) with
  | Some rt ->
    check Alcotest.bool "provider route at stub" true
      (rt.Propagation.learned_over = Some Relationship.Provider)
  | None -> Alcotest.fail "stub 5 unreachable");
  (* 2 and 3 prefer their direct customer route over the peer route *)
  List.iter
    (fun a ->
      match Propagation.route_at r (asn a) with
      | Some rt ->
        check Alcotest.bool "customer preferred" true
          (rt.Propagation.learned_over = Some Relationship.Customer);
        check Alcotest.int "one hop" 1 (List.length rt.Propagation.path)
      | None -> Alcotest.fail "transit unreachable")
    [ 2; 3 ]

let test_propagation_prefers_customer_over_peer () =
  (* 3 has both a peer route (via 2) and a provider route (via 1) to a
     prefix originated at 2's customer... build a topology where the
     choice matters: origin at 2 itself. *)
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g (asn a)) [ 1; 2; 3 ];
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 2);
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 3);
  As_graph.add_edge g (asn 2) Relationship.Peer (asn 3);
  As_graph.originate g (asn 2) (pfx "10.2.0.0/16");
  let r = Propagation.propagate g [ Propagation.announce (asn 2) (pfx "10.2.0.0/16") ] in
  match Propagation.route_at r (asn 3) with
  | Some rt ->
    check Alcotest.bool "peer route preferred over provider" true
      (rt.Propagation.learned_over = Some Relationship.Peer)
  | None -> Alcotest.fail "3 unreachable"

let test_propagation_poisoning () =
  let g = diamond () in
  (* poison AS 2: it must reject the route, traffic flows via 3 *)
  let r =
    Propagation.propagate g
      [ Propagation.announce ~path_suffix:[ asn 2 ] (asn 4) (pfx "10.4.0.0/16") ]
  in
  check Alcotest.bool "poisoned AS has no route" true
    (Propagation.route_at r (asn 2) = None);
  (match Propagation.path_at r (asn 1) with
  | Some path ->
    check Alcotest.bool "tier1 path avoids 2" true
      (not (List.exists (fun a -> Asn.to_int a = 2 && List.length path < 3) path));
    (* path should be 3 :: 4 :: [2] (suffix) *)
    check Alcotest.int "via 3" 3 (Asn.to_int (List.hd path))
  | None -> Alcotest.fail "tier1 unreachable")

let test_propagation_export_to () =
  let g = diamond () in
  (* origin 4 announces only to provider 3 *)
  let r =
    Propagation.propagate g
      [ Propagation.announce
          ~export_to:(Asn.Set.singleton (asn 3))
          (asn 4) (pfx "10.4.0.0/16")
      ]
  in
  (match Propagation.route_at r (asn 2) with
  | Some rt ->
    (* 2 must hear it only indirectly (via peer 3 or provider 1) *)
    check Alcotest.bool "2 not direct" true
      (List.length rt.Propagation.path > 1)
  | None -> ());
  match Propagation.route_at r (asn 3) with
  | Some rt -> check Alcotest.int "3 direct" 1 (List.length rt.Propagation.path)
  | None -> Alcotest.fail "3 should have the route"

let test_propagation_down_as () =
  let g = diamond () in
  let r =
    Propagation.propagate g
      ~down:(Asn.Set.singleton (asn 2))
      [ Propagation.announce (asn 4) (pfx "10.4.0.0/16") ]
  in
  check Alcotest.bool "down AS holds no route" true
    (Propagation.route_at r (asn 2) = None);
  match Propagation.path_at r (asn 1) with
  | Some path ->
    check Alcotest.bool "detour avoids down AS" true
      (not (List.exists (fun a -> Asn.to_int a = 2) path))
  | None -> Alcotest.fail "1 unreachable despite detour"

let test_propagation_anycast_catchment () =
  (* two origins of the same prefix split the graph *)
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g (asn a)) [ 1; 2; 3; 4; 5; 6 ];
  (* chain: 3 - 1 - 2 - 4 ; origins at 5 (under 3) and 6 (under 4) *)
  As_graph.add_edge g (asn 1) Relationship.Peer (asn 2);
  As_graph.add_edge g (asn 3) Relationship.Customer (asn 5);
  As_graph.add_edge g (asn 4) Relationship.Customer (asn 6);
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 3);
  As_graph.add_edge g (asn 2) Relationship.Customer (asn 4);
  let p = pfx "184.164.224.0/24" in
  let r =
    Propagation.propagate g
      [ Propagation.announce (asn 5) p; Propagation.announce (asn 6) p ]
  in
  let catchment = Propagation.catchment r in
  check Alcotest.int "two catchments" 2 (List.length catchment);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 catchment in
  check Alcotest.int "everyone lands somewhere" 6 total;
  (* 3 goes to 5's side; 4 to 6's side *)
  (match Propagation.route_at r (asn 3) with
  | Some rt -> check Alcotest.int "3 -> ann 0" 0 rt.Propagation.ann_index
  | None -> Alcotest.fail "3 unreachable");
  match Propagation.route_at r (asn 4) with
  | Some rt -> check Alcotest.int "4 -> ann 1" 1 rt.Propagation.ann_index
  | None -> Alcotest.fail "4 unreachable"

let test_propagation_routes_via () =
  let g = diamond () in
  let r = Propagation.propagate g [ Propagation.announce (asn 4) (pfx "10.4.0.0/16") ] in
  let via2 = Propagation.routes_via r (asn 2) in
  let via3 = Propagation.routes_via r (asn 3) in
  (* tier1 picks exactly one of the two transits (deterministic: 2) *)
  check Alcotest.int "someone transits 2 or 3" 1
    (List.length via2 + List.length via3)

(* DESIGN.md §9's five ASes: AS4 peers with origin AS1, AS3 is AS4's
   customer, origin AS2 is AS3's customer, AS5 is AS4's customer. AS4
   learns AS1's peer route first and AS3's customer route after it, so
   AS5 must follow AS4 onto [AS4 AS3 AS2]. An engine that adopts only
   improving offers, with no implicit withdraw, left AS5 on [AS4 AS1].
   Re-selection from the empty table must not, with no hooks and with a
   leak on an edge that cannot carry the route (AS5's route loops
   through AS4). *)
let test_repair_drops_stale_route () =
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g (asn a)) [ 1; 2; 3; 4; 5 ];
  As_graph.add_edge g (asn 4) Relationship.Peer (asn 1);
  As_graph.add_edge g (asn 4) Relationship.Customer (asn 3);
  As_graph.add_edge g (asn 3) Relationship.Customer (asn 2);
  As_graph.add_edge g (asn 4) Relationship.Customer (asn 5);
  let p = pfx "10.9.0.0/16" in
  let anns = [ Propagation.announce (asn 1) p; Propagation.announce (asn 2) p ] in
  let at_5 r = Option.map (List.map Asn.to_int) (Propagation.path_at r (asn 5)) in
  check Alcotest.(option (list int)) "propagate" (Some [ 4; 3; 2 ])
    (at_5 (Propagation.propagate g anns));
  List.iter
    (fun (what, leak) ->
      let r = Propagation.empty () in
      Propagation.repair ?leak ~down:Asn.Set.empty g anns r
        ~toggled:(Asn.Set.of_list [ asn 1; asn 2 ]);
      check Alcotest.bool (what ^ ": settled") true (Propagation.settled r);
      check Alcotest.(option (list int)) what (Some [ 4; 3; 2 ]) (at_5 r))
    [ ("no hooks", None);
      ("leak 5 -> 4", Some (fun u v -> Asn.to_int u = 5 && Asn.to_int v = 4))
    ]

(* A per-announcement [deny], found by @propagation-diff's delta group
   on the ~100-AS world of seed 1: AS1 imported [AS4 AS19 AS83 AS59]
   (announcement 2) from its customer AS4, which then switched to
   AS90's announcement 3, and AS1 denies announcement 3. The phased
   pushes alone left AS1 on the route AS4 dropped; [propagate] must
   re-select AS1 onto [AS8 AS19 AS83 AS59], the table re-selection
   builds from scratch. *)
let test_propagate_deny_no_stale_route () =
  let w =
    Gen.generate
      { Gen.seed = 1;
        n_tier1 = 3;
        n_large_transit = 5;
        n_small_transit = 12;
        n_stub = 75;
        n_content = 5;
        target_prefixes = 150
      }
  in
  let g = w.Gen.graph in
  let p = pfx "16.0.76.0/24" in
  let ann ?(suffix = []) ?export_to origin =
    Propagation.announce ~path_suffix:(List.map asn suffix)
      ?export_to:(Option.map (fun l -> Asn.Set.of_list (List.map asn l)) export_to)
      (asn origin) p
  in
  let anns =
    [ ann ~export_to:[ 11 ] 21;
      ann ~export_to:[ 19 ] 64;
      ann ~suffix:[ 83; 59 ] ~export_to:[ 4; 8 ] 19;
      ann ~export_to:[ 13 ] 90;
      ann ~export_to:[] 21;
      ann ~suffix:[ 59 ] 69
    ]
  in
  let down = Asn.Set.of_list (List.map asn [ 45; 62; 76 ]) in
  let deny a (x : Propagation.announcement) =
    Hashtbl.hash (1, Asn.to_int a, Asn.to_int x.Propagation.origin) mod 3 = 0
  in
  check Alcotest.bool "AS1 denies announcement 3" true
    (deny (asn 1) (List.nth anns 3));
  let r = Propagation.propagate ~deny ~down g anns in
  let path a = Option.map (List.map Asn.to_int) (Propagation.path_at r (asn a)) in
  check Alcotest.(option (list int)) "AS4 switched" (Some [ 13; 90 ]) (path 4);
  check Alcotest.(option (list int)) "AS1 re-selected" (Some [ 8; 19; 83; 59 ])
    (path 1);
  let scratch = Propagation.empty () in
  Propagation.repair ~deny ~down g anns scratch
    ~toggled:(Asn.Set.of_list (List.map (fun a -> a.Propagation.origin) anns));
  check Alcotest.bool "propagate = re-selection from empty" true
    (Propagation.table r = Propagation.table scratch)

(* QCheck: every selected path in a random topology is valley-free. *)
let valley_free graph path =
  (* classify each adjacent pair; valid patterns: up* peer? down* *)
  let rec rels acc = function
    | a :: (b :: _ as rest) -> (
      match As_graph.relationship graph a b with
      | Some r -> rels (r :: acc) rest
      | None -> acc (* poisoned suffix: ignore *))
    | _ -> List.rev acc
  in
  (* walking from the AS toward the origin: Provider = up, Peer = flat,
     Customer = down. After going flat or down, must not go up or flat. *)
  let rec ok seen_top = function
    | [] -> true
    | Relationship.Provider :: rest -> (not seen_top) && ok false rest
    | Relationship.Peer :: rest -> (not seen_top) && ok true rest
    | Relationship.Customer :: rest -> ok true rest
  in
  ok false (rels [] path)

let prop_valley_free =
  QCheck.Test.make ~name:"propagated paths are valley-free" ~count:40
    (QCheck.make (QCheck.Gen.int_range 1 10_000))
    (fun seed ->
      let params =
        { Gen.seed;
          n_tier1 = 3;
          n_large_transit = 5;
          n_small_transit = 15;
          n_stub = 60;
          n_content = 4;
          target_prefixes = 120
        }
      in
      let w = Gen.generate params in
      let g = w.Gen.graph in
      (* announce from a deterministic stub *)
      match w.Gen.stubs with
      | [] -> true
      | origin :: _ ->
        let p = List.hd (As_graph.prefixes_of g origin) in
        let r = Propagation.propagate g [ Propagation.announce origin p ] in
        List.for_all
          (fun a ->
            match Propagation.full_path r a with
            | Some path -> valley_free g path
            | None -> true)
          (Propagation.reachable r))

let gen_small_world =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         Gen.generate
           { Gen.seed;
             n_tier1 = 2;
             n_large_transit = 4;
             n_small_transit = 10;
             n_stub = 40;
             n_content = 3;
             target_prefixes = 80
           })
       (QCheck.Gen.int_range 1 100_000))

let prop_selective_export_shrinks_reach =
  QCheck.Test.make ~name:"selective export never reaches more ASes" ~count:25
    gen_small_world
    (fun w ->
      let g = w.Gen.graph in
      match w.Gen.stubs with
      | [] -> true
      | origin :: _ ->
        let p = List.hd (As_graph.prefixes_of g origin) in
        let full =
          Propagation.propagate g [ Propagation.announce origin p ]
        in
        let providers = As_graph.providers g origin in
        let restricted =
          match providers with
          | [] -> full
          | first :: _ ->
            Propagation.propagate g
              [ Propagation.announce
                  ~export_to:(Asn.Set.singleton first)
                  origin p
              ]
        in
        Propagation.reachable_count restricted
        <= Propagation.reachable_count full)

let prop_down_as_monotone =
  QCheck.Test.make ~name:"failing an AS never increases reach" ~count:25
    gen_small_world
    (fun w ->
      let g = w.Gen.graph in
      match (w.Gen.stubs, w.Gen.small_transit) with
      | origin :: _, victim :: _ ->
        let p = List.hd (As_graph.prefixes_of g origin) in
        let full = Propagation.propagate g [ Propagation.announce origin p ] in
        let failed =
          Propagation.propagate g
            ~down:(Asn.Set.singleton victim)
            [ Propagation.announce origin p ]
        in
        Propagation.reachable_count failed <= Propagation.reachable_count full
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Bgp_sim: protocol-level engine, cross-validated against the
   algorithmic propagation engine *)

let test_bgp_sim_diamond () =
  let g = diamond () in
  let engine = Peering_sim.Engine.create () in
  let sim = Bgp_sim.build engine g in
  Peering_sim.Engine.run ~until:10.0 engine;
  Bgp_sim.start sim;
  check Alcotest.bool "converges" true (Bgp_sim.converged sim engine ());
  let p = pfx "10.4.0.0/16" in
  check Alcotest.int "all four routers have the route" 4
    (Bgp_sim.reachable_count sim p);
  (* tier1's protocol path matches the algorithmic engine's *)
  let alg =
    Propagation.propagate g [ Propagation.announce (asn 4) p ]
  in
  List.iter
    (fun a ->
      let proto_len =
        Option.map List.length (Bgp_sim.as_path_at sim (asn a) p)
      in
      let alg_len =
        Option.map List.length (Propagation.path_at alg (asn a))
      in
      check
        Alcotest.(option int)
        (Printf.sprintf "path length at AS%d" a)
        alg_len proto_len)
    [ 1; 2; 3 ];
  (* peer route not re-exported: 2 and 3 reach via their customer *)
  match Bgp_sim.as_path_at sim (asn 2) p with
  | Some path -> check Alcotest.(list int) "direct customer path" [ 4 ]
      (List.map Asn.to_int path)
  | None -> Alcotest.fail "AS2 unreachable"

let test_bgp_sim_withdraw_reconverges () =
  let g = diamond () in
  (* give 4 a second prefix through only one provider by failing a
     link mid-run instead: withdraw and confirm removal *)
  let engine = Peering_sim.Engine.create () in
  let sim = Bgp_sim.build engine g in
  Peering_sim.Engine.run ~until:10.0 engine;
  Bgp_sim.start sim;
  ignore (Bgp_sim.converged sim engine ());
  let p = pfx "10.4.0.0/16" in
  Bgp_sim.withdraw sim (asn 4) p;
  ignore (Bgp_sim.converged sim engine ());
  check Alcotest.int "withdrawn everywhere" 0 (Bgp_sim.reachable_count sim p)

let prop_bgp_sim_matches_propagation =
  QCheck.Test.make ~name:"protocol engine = algorithmic engine" ~count:8
    (QCheck.make (QCheck.Gen.int_range 1 1_000))
    (fun seed ->
      let params =
        { Gen.seed;
          n_tier1 = 2;
          n_large_transit = 3;
          n_small_transit = 6;
          n_stub = 18;
          n_content = 2;
          target_prefixes = 40
        }
      in
      let w = Gen.generate params in
      let g = w.Gen.graph in
      let engine = Peering_sim.Engine.create ~seed () in
      let sim = Bgp_sim.build engine g in
      Peering_sim.Engine.run ~until:20.0 engine;
      (* a single origin to keep runtimes low *)
      let origin = List.hd w.Gen.stubs in
      let p = List.hd (As_graph.prefixes_of g origin) in
      Bgp_sim.originate sim origin p;
      if not (Bgp_sim.converged sim engine ~timeout:1200.0 ()) then false
      else begin
        let alg = Propagation.propagate g [ Propagation.announce origin p ] in
        List.for_all
          (fun a ->
            let proto = Bgp_sim.as_path_at sim a p in
            let algo = Propagation.path_at alg a in
            match (proto, algo) with
            | None, None -> true
            | Some pp, Some ap ->
              (* both engines must agree on reachability and on the
                 economic class + path length (exact hops may differ on
                 ties) *)
              List.length pp = List.length ap
            | Some _, None | None, Some _ -> Asn.equal a origin
            (* the origin holds a local route in the protocol engine
               and an origin route in the algorithmic one: both Some *))
          (As_graph.ases g)
      end)

(* ------------------------------------------------------------------ *)
(* Customer cone *)

let test_cone () =
  let g = diamond () in
  let cone_size a = Asn.Set.cardinal (Customer_cone.cone g (asn a)) in
  check Alcotest.int "stub cone" 1 (cone_size 4);
  check Alcotest.int "transit cone" 2 (cone_size 2);
  check Alcotest.int "tier1 cone" 4 (cone_size 1);
  let prefixes = Customer_cone.cone_prefixes g (asn 2) in
  check Alcotest.bool "cone prefixes include customer" true
    (Prefix.Set.mem (pfx "10.4.0.0/16") prefixes);
  match Customer_cone.top g 2 with
  | first :: _ -> check Alcotest.int "tier1 ranks first" 1 (Asn.to_int first)
  | [] -> Alcotest.fail "empty ranking"

(* ------------------------------------------------------------------ *)
(* Gen *)

let small_params =
  { Gen.default_params with
    Gen.n_tier1 = 5;
    n_large_transit = 10;
    n_small_transit = 40;
    n_stub = 200;
    n_content = 10;
    target_prefixes = 1500
  }

let test_gen_structure () =
  let w = Gen.generate small_params in
  let g = w.Gen.graph in
  check Alcotest.int "as count" 265 (As_graph.n_ases g);
  (* tier1 clique *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Asn.equal a b) then
            check Alcotest.bool "tier1 mesh" true
              (As_graph.relationship g a b = Some Relationship.Peer))
        w.Gen.tier1)
    w.Gen.tier1;
  (* every non-tier1 AS has at least one provider *)
  List.iter
    (fun a ->
      check Alcotest.bool "has provider" true
        (As_graph.providers g a <> []))
    (w.Gen.large_transit @ w.Gen.small_transit @ w.Gen.stubs @ w.Gen.content);
  (* prefix total near target *)
  let total = As_graph.n_prefixes g in
  check Alcotest.bool "prefix total near target" true
    (total > 1000 && total < 2200)

let test_gen_deterministic () =
  let w1 = Gen.generate small_params in
  let w2 = Gen.generate small_params in
  check Alcotest.int "same edges" (As_graph.n_edges w1.Gen.graph)
    (As_graph.n_edges w2.Gen.graph);
  check Alcotest.int "same prefixes" (As_graph.n_prefixes w1.Gen.graph)
    (As_graph.n_prefixes w2.Gen.graph)

let test_gen_connected_to_tier1 () =
  let w = Gen.generate small_params in
  let g = w.Gen.graph in
  (* every stub can climb to some tier1 by provider links *)
  let tier1 = Asn.Set.of_list w.Gen.tier1 in
  let rec climbs visited a =
    if Asn.Set.mem a tier1 then true
    else if Asn.Set.mem a visited then false
    else
      List.exists (climbs (Asn.Set.add a visited)) (As_graph.providers g a)
  in
  List.iter
    (fun s -> check Alcotest.bool "stub climbs to tier1" true (climbs Asn.Set.empty s))
    (List.filteri (fun i _ -> i < 50) w.Gen.stubs)

(* ------------------------------------------------------------------ *)
(* Topology zoo *)

(* The embedded link list spans every PoP: a walk from PoP 0 over the
   undirected links reaches them all. *)
let zoo_connected (z : Topology_zoo.t) =
  let seen = Array.make (Topology_zoo.n_pops z) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter
        (fun (a, b) -> if a = i then visit b else if b = i then visit a)
        z.Topology_zoo.links
    end
  in
  visit 0;
  Array.for_all Fun.id seen

let test_zoo_he () =
  let he = Topology_zoo.hurricane_electric in
  check Alcotest.int "24 pops" 24 (Topology_zoo.n_pops he);
  check Alcotest.bool "connected" true (zoo_connected he);
  (* Amsterdam, the PoP §4.2 connects to AMS-IX, has at least two links *)
  match
    List.find_opt
      (fun i -> he.Topology_zoo.pops.(i) = "Amsterdam")
      (List.init (Topology_zoo.n_pops he) Fun.id)
  with
  | Some i ->
    check Alcotest.bool "degree >= 2" true
      (List.length
         (List.filter (fun (a, b) -> a = i || b = i) he.Topology_zoo.links)
      >= 2)
  | None -> Alcotest.fail "no amsterdam"

let test_zoo_abilene () =
  let ab = Topology_zoo.abilene in
  check Alcotest.int "11 pops" 11 (Topology_zoo.n_pops ab);
  check Alcotest.bool "connected" true (zoo_connected ab)

(* ------------------------------------------------------------------ *)
(* Dense view and table memory *)

(* The ASNs of row [i] of view [d]. *)
let dense_row (d : As_graph.dense) i =
  List.init
    (d.As_graph.first.(i + 1) - d.As_graph.first.(i))
    (fun k -> Asn.to_int d.As_graph.asns.(d.As_graph.nbr.(d.As_graph.first.(i) + k)))

(* Indices are insertion order and never move; rows list neighbours in
   ascending ASN order; an added edge or AS makes the next read freeze
   a new view, and the old view still answers for the ASes it holds. *)
let test_dense_view () =
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g (asn a)) [ 30; 10; 20 ];
  As_graph.add_edge g (asn 30) Relationship.Customer (asn 20);
  As_graph.add_edge g (asn 30) Relationship.Peer (asn 10);
  let d = As_graph.freeze g in
  check Alcotest.bool "cached while unchanged" true (As_graph.freeze g == d);
  check Alcotest.(list int) "indices in insertion order" [ 0; 1; 2 ]
    (List.map (fun a -> As_graph.index d (asn a)) [ 30; 10; 20 ]);
  check Alcotest.int "unknown AS" (-1) (As_graph.index d (asn 99));
  check Alcotest.(list int) "row in ASN order" [ 10; 20 ] (dense_row d 0);
  (* A frozen graph keeps its edges in the view alone. *)
  check Alcotest.bool "relationship read from the view" true
    (As_graph.relationship g (asn 20) (asn 30) = Some Relationship.Provider);
  check Alcotest.bool "duplicate of a frozen edge" true
    (try
       As_graph.add_edge g (asn 10) Relationship.Peer (asn 30);
       false
     with Invalid_argument _ -> true);
  As_graph.add_as g (asn 5);
  As_graph.add_edge g (asn 5) Relationship.Provider (asn 30);
  check Alcotest.bool "relationship of an edge added since" true
    (As_graph.relationship g (asn 30) (asn 5) = Some Relationship.Customer);
  let d' = As_graph.freeze g in
  check Alcotest.bool "frozen again" false (d' == d);
  check Alcotest.(list int) "old indices kept, new AS last" [ 0; 1; 2; 3 ]
    (List.map (fun a -> As_graph.index d' (asn a)) [ 30; 10; 20; 5 ]);
  check Alcotest.int "the old view lacks the new AS" (-1)
    (As_graph.index d (asn 5));
  check Alcotest.(list int) "new edge in the row" [ 5; 10; 20 ] (dense_row d' 0);
  check Alcotest.(list int) "accessors read the new view" [ 5; 20 ]
    (List.map Asn.to_int (As_graph.customers g (asn 30)))

(* Memory per prefix has a stated bound. One table of the default
   testbed (one /24 announced at all five sites) costs at most
   [words_per_reachable] words per reachable AS, counting its route
   array and its routes but not the graph's dense view, which every
   table shares. A route is a 4-word record plus the one cons cell it
   adds to its next hop's path (3 words), and its array slot holds 1:
   8 words. The hash table of routes it replaced cost 13.6. *)
let words_per_reachable = 9

let test_table_memory_bound () =
  let open Peering_core in
  let t = Testbed.build () in
  let e =
    match Testbed.new_experiment t ~id:"memory" () with
    | Ok e -> e
    | Error s -> Alcotest.fail s
  in
  let c = Client.create ~id:"c-memory" ~experiment:e () in
  Testbed.connect_client t c
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  let p = List.hd e.Experiment.prefixes in
  ignore (Client.announce c p);
  let r = Option.get (Testbed.result_for t p) in
  let view = As_graph.freeze (Testbed.graph t) in
  let words =
    Obj.reachable_words (Obj.repr (r, view))
    - Obj.reachable_words (Obj.repr view)
  in
  let reach = Propagation.reachable_count r in
  check Alcotest.bool "most ASes reachable" true
    (2 * reach > As_graph.n_ases (Testbed.graph t));
  if words > words_per_reachable * reach then
    Alcotest.failf "table costs %d words for %d reachable ASes (%.2f each, bound %d)"
      words reach
      (float_of_int words /. float_of_int reach)
      words_per_reachable

let () =
  Alcotest.run "topo"
    [ ( "graph",
        [ tc "edges" `Quick test_graph_edges;
          tc "validation" `Quick test_graph_validation;
          tc "dense view" `Quick test_dense_view
        ] );
      ("gao-rexford", [ tc "export rules" `Quick test_export_rules ]);
      ( "propagation",
        [ tc "reaches all" `Quick test_propagation_reaches_all;
          tc "valley free" `Quick test_propagation_valley_free;
          tc "customer over peer" `Quick test_propagation_prefers_customer_over_peer;
          tc "poisoning" `Quick test_propagation_poisoning;
          tc "selective export" `Quick test_propagation_export_to;
          tc "as down" `Quick test_propagation_down_as;
          tc "anycast catchment" `Quick test_propagation_anycast_catchment;
          tc "routes via" `Quick test_propagation_routes_via;
          tc "no stale route (five ASes)" `Quick test_repair_drops_stale_route;
          tc "no stale route under deny" `Quick
            test_propagate_deny_no_stale_route;
          tc "table memory bound" `Quick test_table_memory_bound;
          QCheck_alcotest.to_alcotest prop_valley_free;
          QCheck_alcotest.to_alcotest prop_selective_export_shrinks_reach;
          QCheck_alcotest.to_alcotest prop_down_as_monotone
        ] );
      ( "bgp-sim",
        [ tc "diamond" `Quick test_bgp_sim_diamond;
          tc "withdraw" `Quick test_bgp_sim_withdraw_reconverges;
          QCheck_alcotest.to_alcotest prop_bgp_sim_matches_propagation
        ] );
      ("cone", [ tc "cone" `Quick test_cone ]);
      ( "gen",
        [ tc "structure" `Quick test_gen_structure;
          tc "deterministic" `Quick test_gen_deterministic;
          tc "connected" `Quick test_gen_connected_to_tier1
        ] );
      ( "zoo",
        [ tc "hurricane electric" `Quick test_zoo_he;
          tc "abilene" `Quick test_zoo_abilene
        ] )
    ]
