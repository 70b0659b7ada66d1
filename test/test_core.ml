open Peering_net
open Peering_core
module Engine = Peering_sim.Engine
module Gen = Peering_topo.Gen

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Experiment + Controller *)

let test_controller_vetting () =
  let ctl = Controller.create ~supply:[ pfx "184.164.224.0/19" ] in
  (* too-short description rejected *)
  (match Controller.propose ctl ~id:"x" ~owner:"eve" ~description:"short" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vetting passed a junk proposal");
  (* good proposal approved with resources *)
  match
    Controller.propose ctl ~id:"lifeguard" ~owner:"ethan"
      ~description:"reroute around persistent interdomain failures"
      ~n_prefixes:2 ()
  with
  | Error err -> Alcotest.fail err
  | Ok exp ->
    check Alcotest.int "prefixes allocated" 2
      (List.length exp.Experiment.prefixes);
    check Alcotest.int "one asn allocated" 1
      (List.length exp.Experiment.private_asns);
    check Alcotest.bool "asns private" true
      (List.for_all Asn.is_private exp.Experiment.private_asns);
    check Alcotest.bool "approved" true
      (exp.Experiment.status = Experiment.Approved);
    (* duplicate id rejected *)
    (match
       Controller.propose ctl ~id:"lifeguard" ~owner:"other"
         ~description:"a second experiment with the same identifier" ()
     with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "duplicate id accepted");
    Controller.activate ctl exp;
    check Alcotest.bool "active" true (Experiment.is_active exp);
    check Alcotest.bool "owns allocation" true
      (Experiment.owns_prefix exp (List.hd exp.Experiment.prefixes));
    let before = Controller.available_blocks ctl in
    Controller.stop ctl exp;
    check Alcotest.int "blocks returned" (before + 2)
      (Controller.available_blocks ctl)

let test_controller_pool_exhaustion () =
  let ctl = Controller.create ~supply:[ pfx "184.164.224.0/22" ] in
  (* /22 = 4 blocks of /24 *)
  (match
     Controller.propose ctl ~id:"big" ~owner:"o"
       ~description:"an experiment requesting the whole address pool"
       ~n_prefixes:4 ()
   with
  | Ok _ -> ()
  | Error err -> Alcotest.fail err);
  match
    Controller.propose ctl ~id:"late" ~owner:"o"
      ~description:"another experiment arriving after pool exhaustion" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "allocated from empty pool"

let test_controller_donation () =
  let ctl = Controller.create ~supply:[ pfx "184.164.224.0/24" ] in
  check Alcotest.int "one block" 1 (Controller.available_blocks ctl);
  Controller.donate_supply ctl (pfx "198.51.100.0/23");
  check Alcotest.int "donated blocks" 3 (Controller.available_blocks ctl);
  check Alcotest.bool "owns donation" true
    (Controller.owns ctl (pfx "198.51.100.0/24"))

(* ------------------------------------------------------------------ *)
(* Safety *)

let active_experiment () =
  let exp =
    Experiment.make ~id:"e1" ~owner:"o" ()
  in
  exp.Experiment.prefixes <- [ pfx "184.164.224.0/24" ];
  exp.Experiment.private_asns <- [ asn 64512 ];
  exp.Experiment.status <- Experiment.Active;
  exp

let mk_safety () =
  Safety.create ~peering_asn:(asn 47065)
    ~owns:(fun p -> Prefix.subsumes (pfx "184.164.224.0/19") p)
    ()

let test_safety_hijack_blocked () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* announcing google's prefix is a hijack *)
  match
    Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
      ~prefix:(pfx "8.8.8.0/24") ~path_suffix:[]
  with
  | Error Safety.Prefix_not_owned -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Safety.reason_to_string e)
  | Ok () -> Alcotest.fail "hijack permitted"

let test_safety_isolation () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* PEERING space, but not this experiment's block *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.225.0/24") ~path_suffix:[]
   with
  | Error Safety.Prefix_not_allocated -> ()
  | _ -> Alcotest.fail "cross-experiment announcement permitted");
  (* two clients, same prefix: second blocked *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "legit blocked: %s" (Safety.reason_to_string e));
  match
    Safety.check_announce s ~now:10.0 ~client:"c2" ~experiment:exp
      ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
  with
  | Error Safety.Announced_by_other_experiment -> ()
  | _ -> Alcotest.fail "duplicate announcement permitted"

let test_safety_inactive () =
  let s = mk_safety () in
  let exp = active_experiment () in
  exp.Experiment.status <- Experiment.Stopped;
  match
    Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
      ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
  with
  | Error Safety.Experiment_not_active -> ()
  | _ -> Alcotest.fail "stopped experiment announced"

let test_safety_poisoning_permission () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* public ASN in suffix without poison rights: rejected *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[ asn 3356 ]
   with
  | Error (Safety.Poisoning_not_permitted _) -> ()
  | _ -> Alcotest.fail "unvetted poisoning permitted");
  (* private suffix fine, and stripped on sanitize *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[ asn 64512 ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "private suffix blocked: %s" (Safety.reason_to_string e));
  check Alcotest.(list int) "private stripped" []
    (List.map Asn.to_int (Safety.sanitize_suffix s exp [ asn 64512 ]));
  (* vetted poisoning passes and survives sanitize *)
  let exp2 =
    Experiment.make ~id:"e2" ~owner:"o"
      ~may_poison:true ()
  in
  exp2.Experiment.prefixes <- [ pfx "184.164.225.0/24" ];
  exp2.Experiment.status <- Experiment.Active;
  (match
     Safety.check_announce s ~now:0.0 ~client:"c9" ~experiment:exp2
       ~prefix:(pfx "184.164.225.0/24") ~path_suffix:[ asn 3356 ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "vetted poisoning blocked: %s" (Safety.reason_to_string e));
  check Alcotest.(list int) "poison survives" [ 3356 ]
    (List.map Asn.to_int (Safety.sanitize_suffix s exp2 [ asn 3356 ]))

let test_safety_dampening () =
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce now =
    Safety.check_announce s ~now ~client:"flappy" ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce 0.0 with Ok () -> () | Error _ -> Alcotest.fail "first");
  Safety.note_withdraw s ~now:1.0 ~client:"flappy" ~prefix:p;
  (match announce 1.5 with Ok () -> () | Error _ -> Alcotest.fail "second");
  Safety.note_withdraw s ~now:2.0 ~client:"flappy" ~prefix:p;
  (match announce 2.2 with Ok () -> () | Error _ -> Alcotest.fail "third");
  Safety.note_withdraw s ~now:2.5 ~client:"flappy" ~prefix:p;
  (* three rapid withdrawals => penalty ~3000 > suppress threshold *)
  match announce 3.0 with
  | Error (Safety.Dampened until) ->
    check Alcotest.bool "reuse in future" true (until > 3.0);
    check Alcotest.bool "suppressed_until agrees" true
      (Safety.suppressed_until s ~now:3.0 ~client:"flappy" p <> None)
  | _ -> Alcotest.fail "flapping client not dampened"

let test_safety_dampened_while_registered () =
  (* check_announce ordering: the registration conflict is reported
     before dampening, and dampening never blocks the registrant. *)
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce client now =
    Safety.check_announce s ~now ~client ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce "c1" 0.0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "c1 blocked: %s" (Safety.reason_to_string e));
  (* c2 flaps its own dampening state; c1's registration is untouched *)
  Safety.note_withdraw s ~now:1.0 ~client:"c2" ~prefix:p;
  Safety.note_withdraw s ~now:1.5 ~client:"c2" ~prefix:p;
  Safety.note_withdraw s ~now:2.0 ~client:"c2" ~prefix:p;
  check Alcotest.(option string) "c1 still registered" (Some "c1")
    (Safety.announced_by s p);
  check Alcotest.bool "c2 is suppressed" true
    (Safety.suppressed_until s ~now:2.5 ~client:"c2" p <> None);
  (* c2 is both dampened and conflicting; the conflict must win *)
  (match announce "c2" 2.5 with
  | Error Safety.Announced_by_other_experiment -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Safety.reason_to_string e)
  | Ok () -> Alcotest.fail "conflicting announcement permitted");
  (* the registrant itself carries no penalty and may re-announce *)
  match announce "c1" 2.5 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "registrant blocked: %s" (Safety.reason_to_string e)

let test_safety_announce_after_release () =
  (* release frees the registration without counting as a flap, but
     keeps the dampening history accumulated by earlier withdrawals. *)
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce client now =
    Safety.check_announce s ~now ~client ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce "c1" 0.0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "c1 blocked: %s" (Safety.reason_to_string e));
  check Alcotest.bool "first release succeeds" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Released);
  check Alcotest.(option string) "released" None (Safety.announced_by s p);
  (* releasing is not a flap: an immediate re-announce is fine *)
  (match announce "c1" 0.1 with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "re-announce after release blocked: %s"
      (Safety.reason_to_string e));
  ignore (Safety.release s ~client:"c1" ~prefix:p);
  (* another client may claim the prefix once it is released *)
  (match announce "c2" 1.0 with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "c2 blocked after release: %s" (Safety.reason_to_string e));
  (* but release does not launder dampening history: flap, release,
     and the penalty still suppresses the next announcement *)
  Safety.note_withdraw s ~now:1.5 ~client:"c2" ~prefix:p;
  (match announce "c2" 1.6 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second: %s" (Safety.reason_to_string e));
  Safety.note_withdraw s ~now:2.0 ~client:"c2" ~prefix:p;
  (match announce "c2" 2.1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "third: %s" (Safety.reason_to_string e));
  Safety.note_withdraw s ~now:2.4 ~client:"c2" ~prefix:p;
  ignore (Safety.release s ~client:"c2" ~prefix:p);
  match announce "c2" 2.5 with
  | Error (Safety.Dampened until) ->
    check Alcotest.bool "reuse in future" true (until > 2.5)
  | _ -> Alcotest.fail "dampening history survived release"

(* ------------------------------------------------------------------ *)
(* Capability (Table 1) *)

let test_capability_claims () =
  check Alcotest.bool "PEERING meets all goals" true
    (Capability.peering_meets_all ());
  check Alcotest.int "no pair of other systems covers all" 0
    (List.length (Capability.combinations_covering_all ()));
  (* spot-check cells against the paper *)
  check Alcotest.bool "TP interdomain" true
    (Capability.support Capability.Transit_portal Capability.Interdomain
     = Capability.Full);
  check Alcotest.bool "beacons limited interdomain" true
    (Capability.support Capability.Beacons Capability.Interdomain
     = Capability.Limited);
  check Alcotest.bool "mininet no rich conn" true
    (Capability.support Capability.Mininet Capability.Rich_connectivity
     = Capability.None_);
  check Alcotest.bool "render mentions all testbeds" true
    (List.for_all
       (fun t ->
         let abbrev = Capability.testbed_abbrev t in
         let rendered = Capability.render () in
         let len_r = String.length rendered and len_a = String.length abbrev in
         let rec find i =
           i + len_a <= len_r
           && (String.sub rendered i len_a = abbrev || find (i + 1))
         in
         find 0)
       Capability.testbeds)

(* ------------------------------------------------------------------ *)
(* Testbed integration *)

let small_world =
  { Gen.default_params with
    Gen.n_tier1 = 5;
    n_large_transit = 12;
    n_small_transit = 80;
    n_stub = 900;
    n_content = 15;
    target_prefixes = 4000
  }

let small_params =
  { Testbed.default_params with
    Testbed.world = small_world;
    university_sites = [ ("gatech01", 2) ]
  }

let build () = Testbed.build ~params:small_params ()

let testbed = lazy (build ())

let test_testbed_build () =
  let t = Lazy.force testbed in
  let names = List.map Testbed.site_name (Testbed.sites t) in
  check Alcotest.(list string) "sites"
    [ "amsterdam01"; "gatech01"; "phoenix01" ]
    (List.sort String.compare names);
  (* AMS-IX yields hundreds of peers *)
  let ams_peers = Testbed.peers_at t "amsterdam01" in
  check Alcotest.bool "hundreds of peers" true (List.length ams_peers >= 554);
  check Alcotest.int "university providers" 2
    (List.length (Testbed.peers_at t "gatech01"))

let test_testbed_announce_reaches_internet () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"reach" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-reach" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  let outcomes = Client.announce client p in
  List.iter
    (fun (site, r) ->
      match r with
      | Ok () -> ()
      | Error reason ->
        Alcotest.failf "%s rejected: %s" site (Safety.reason_to_string reason))
    outcomes;
  let reach = Testbed.reach_count t p in
  let total = Peering_topo.As_graph.n_ases (Testbed.graph t) in
  check Alcotest.bool "most of the Internet reaches the prefix" true
    (reach > total / 2);
  (* path from a random stub ends at PEERING *)
  let w = Testbed.world t in
  let stub = List.nth w.Gen.stubs 10 in
  (match Testbed.path_from t stub p with
  | Some path ->
    check Alcotest.int "path terminates at AS 47065" 47065
      (Asn.to_int (List.nth path (List.length path - 1)))
  | None -> Alcotest.fail "stub cannot reach the prefix");
  (* collector saw the export *)
  check Alcotest.bool "collector recorded" true
    (Peering_measure.Collector.n_entries (Testbed.collector t) > 0);
  Client.withdraw client p;
  check Alcotest.int "withdrawn: unreachable" 0 (Testbed.reach_count t p)

let test_testbed_selective_announcement () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"selective" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-sel" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  (* announce to every AMS peer *)
  ignore (Client.announce client p);
  let full = Testbed.reach_count t p in
  Client.withdraw client p;
  (* announce to just three peers *)
  let three =
    List.filteri (fun i _ -> i < 3) (Testbed.peers_at t "amsterdam01")
  in
  ignore (Client.announce client ~peers:three p);
  let limited = Testbed.reach_count t p in
  check Alcotest.bool "selective reaches fewer ASes" true (limited < full);
  check Alcotest.bool "but still propagates" true (limited > 0);
  Client.withdraw client p

let test_testbed_hijack_contained () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"attacker" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-evil" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  (* try to hijack a real prefix of the simulated Internet *)
  let w = Testbed.world t in
  let victim_prefix =
    List.hd
      (Peering_topo.As_graph.prefixes_of (Testbed.graph t)
         (List.hd w.Gen.stubs))
  in
  (match Client.announce client victim_prefix with
  | [ (_, Error Safety.Prefix_not_owned) ] -> ()
  | _ -> Alcotest.fail "hijack not contained");
  (* the Internet never saw it *)
  check Alcotest.int "no propagation" 0 (Testbed.reach_count t victim_prefix)

let test_testbed_anycast_catchment () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"anycast" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-any" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  (* every AS with a route enters through some site *)
  let w = Testbed.world t in
  let sites =
    List.filter_map
      (fun stub -> Testbed.ingress_site t ~from_asn:stub p)
      (List.filteri (fun i _ -> i < 200) w.Gen.stubs)
  in
  check Alcotest.bool "catchment observed" true (List.length sites > 100);
  let distinct = List.sort_uniq String.compare sites in
  check Alcotest.bool "traffic splits across sites" true
    (List.length distinct >= 2);
  Client.withdraw client p

let test_testbed_failure_avoidance () =
  (* LIFEGUARD-style: a transit AS fails; announcements still reach via
     other paths after reroute. *)
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"lifeguard-it" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-lg" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let before = Testbed.reach_count t p in
  (* kill one of the university providers *)
  let provider = List.hd (Testbed.peers_at t "gatech01") in
  Testbed.set_down t provider true;
  let after = Testbed.reach_count t p in
  check Alcotest.bool "connectivity survives via second provider" true
    (after > 0);
  check Alcotest.bool "failure shrinks or keeps reach" true (after <= before);
  Testbed.set_down t provider false;
  check Alcotest.int "recovery" before (Testbed.reach_count t p);
  Client.withdraw client p

let test_testbed_moas_hijack_study () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"moas" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-moas" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let legit = Testbed.reach_count t p in
  (* an attacker in the wild announces our prefix *)
  let w = Testbed.world t in
  let attacker = List.nth w.Gen.small_transit 5 in
  Testbed.inject_external t ~origin:attacker p;
  (match Testbed.result_for t p with
  | None -> Alcotest.fail "no result"
  | Some r ->
    let catchment = Peering_topo.Propagation.catchment r in
    check Alcotest.int "two origins compete" 2 (List.length catchment));
  (* some ASes are captured by the attacker *)
  let captured =
    List.length
      (List.filter
         (fun stub -> Testbed.ingress_site t ~from_asn:stub p = None)
         (List.filteri (fun i _ -> i < 200) (Testbed.world t).Gen.stubs))
  in
  check Alcotest.bool "hijack diverts some ASes" true (captured > 0);
  Testbed.retract_external t ~origin:attacker p;
  check Alcotest.int "retraction restores" legit (Testbed.reach_count t p);
  Client.withdraw client p

let test_testbed_client_receives_routes () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"rx" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-rx" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  let fed = Testbed.feed_peer_routes t ~site:"gatech01" in
  check Alcotest.bool "routes fed" true (fed > 0);
  check Alcotest.bool "client rib populated" true (Client.route_count client > 0);
  (* candidates carry per-peer multiplicity: same prefix can arrive
     from both providers *)
  let multi =
    Peering_bgp.Rib.fold_best
      (fun prefix _ acc ->
        max acc (List.length (Client.candidates client prefix)))
      (Client.rib client) 0
  in
  check Alcotest.bool "client sees per-peer routes" true (multi >= 1)

(* Three upstreams and two clients: per-peer sessions give each client
   one session per upstream, the ADD-PATH mux one in all. *)
let test_server_session_stats () =
  let stats ?mux () =
    let safety = Safety.create ~peering_asn:(asn 47065) ~owns:(fun _ -> true) () in
    let s =
      Server.create (Engine.create ()) ~name:"m" ~asn:(asn 47065) ~safety ?mux
        ~export:(fun _ -> ()) ()
    in
    List.iter (fun a -> Server.add_peer s (asn a)) [ 100; 200; 300 ];
    List.iter
      (fun id ->
        let experiment = Experiment.make ~id ~owner:"o" () in
        experiment.Experiment.status <- Experiment.Active;
        Server.connect_client s ~experiment id)
      [ "c1"; "c2" ];
    Server.session_stats s
  in
  let per_peer = stats () and add_path = stats ~mux:Server.Add_path_mux () in
  check Alcotest.int "per-peer: 3 upstream + 2 x 3 client sessions" 9
    per_peer.Server.total_sessions;
  check Alcotest.int "add-path: 3 upstream + 2 client sessions" 5
    add_path.Server.total_sessions;
  check Alcotest.int "64 KiB per session" (9 * 64 * 1024)
    per_peer.Server.est_memory_bytes

(* The mux's BMP stream walks its peers in the order they were added
   (attach sync, crash, restart), and its Stats Reports read the live
   per-peer route counts. *)
let test_server_bmp_peer_order () =
  let module Bmp = Peering_bgp.Bmp in
  let e = Engine.create () in
  let safety =
    Safety.create ~peering_asn:(asn 47065) ~owns:(fun _ -> true) ()
  in
  let server =
    Server.create e ~name:"m" ~asn:(asn 47065) ~safety ~export:(fun _ -> ()) ()
  in
  let order = [ 300; 100; 200 ] in
  List.iter (fun a -> Server.add_peer server (asn a)) order;
  check Alcotest.(list int) "peer_asns in add order" order
    (List.map Asn.to_int (Server.peer_asns server));
  let learn peer path p = Server.learn_route server ~peer:(asn peer) ~path p in
  learn 100 [ asn 100 ] (pfx "10.0.0.0/24");
  learn 100 [ asn 100; asn 7 ] (pfx "10.0.0.0/24");
  learn 100 [ asn 100 ] (pfx "10.0.1.0/24");
  learn 200 [ asn 200 ] (pfx "10.0.2.0/24");
  Server.withdraw_learned server ~peer:(asn 100) (pfx "10.0.1.0/24");
  Server.withdraw_learned server ~peer:(asn 200) (pfx "10.9.0.0/24");
  Server.withdraw_learned server ~peer:(asn 999) (pfx "10.0.2.0/24");
  check Alcotest.int "replace, withdraw and no-ops counted" 2
    (Server.learned_route_count server);
  let msgs = ref [] in
  Server.set_bmp_sink server
    (Some
       (fun b ->
         match Bmp.decode b ~pos:0 with
         | Ok (m, _) -> msgs := m :: !msgs
         | Error _ -> Alcotest.fail "undecodable BMP message"));
  let take () =
    let l = List.rev !msgs in
    msgs := [];
    l
  in
  let peers_of f l =
    List.filter_map (fun m -> Option.map Asn.to_int (f m)) l
  in
  let ups = function Bmp.Peer_up { peer; _ } -> Some peer.Bmp.peer_asn | _ -> None
  and downs = function
    | Bmp.Peer_down { peer; _ } -> Some peer.Bmp.peer_asn
    | _ -> None
  and stats = function
    | Bmp.Stats_report { peer; stats = [ s ] } ->
      Some (Asn.to_int peer.Bmp.peer_asn, s.Bmp.stat_value)
    | _ -> None
  in
  let sync = take () in
  check Alcotest.(list int) "sync: Peer Ups in add order" order
    (peers_of ups sync);
  check Alcotest.(list (pair int int)) "sync: live counts in add order"
    [ (300, 0); (100, 1); (200, 1) ]
    (List.filter_map stats sync);
  Server.crash server;
  check Alcotest.(list int) "crash: Peer Downs in add order" order
    (peers_of downs (take ()));
  check Alcotest.int "crash: tables empty" 0 (Server.learned_route_count server);
  Server.restart server;
  check Alcotest.(list int) "restart: Peer Ups in add order" order
    (peers_of ups (take ()));
  learn 200 [ asn 200 ] (pfx "10.0.3.0/24");
  ignore (take ());
  Server.emit_bmp_stats server;
  check Alcotest.(list (pair int int)) "stats: counts from zero after crash"
    [ (300, 0); (100, 0); (200, 1) ]
    (List.filter_map stats (take ()))

(* ------------------------------------------------------------------ *)
(* Portal *)

let test_portal_accounts () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"alice" ~email:"a@usc.edu"
           ~affiliation:"USC" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Portal.register portal ~username:"alice" ~email:"x@y.edu"
           ~affiliation:"other" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate username accepted");
  (* no affiliation, non-.edu address: held *)
  (match Portal.register portal ~username:"anon" ~email:"x@example.com"
           ~affiliation:"  " with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "anonymous account auto-approved");
  check Alcotest.(option bool) "approved" (Some true)
    (Portal.approved portal "alice")

let test_portal_board () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"bob" ~email:"b@gatech.edu"
           ~affiliation:"Georgia Tech" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a good proposal and one the controller's vetting rejects *)
  (match
     Portal.submit portal ~username:"bob" ~id:"portal-good"
       ~description:
         "measure interdomain route convergence with controlled announcements"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Portal.submit portal ~username:"bob" ~id:"portal-bad"
       ~description:"too short"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "two pending" 2 (List.length (Portal.pending portal));
  let outcomes = Portal.forward_queued portal in
  check Alcotest.int "queue drained" 0 (List.length (Portal.pending portal));
  (match List.assoc "portal-good" outcomes with
  | Ok e ->
    check Alcotest.bool "provisioned active" true (Experiment.is_active e)
  | Error e -> Alcotest.failf "good proposal rejected: %s" e);
  match List.assoc "portal-bad" outcomes with
  | Error reason ->
    check Alcotest.string "the controller's reason"
      "controller: description too short for vetting" reason
  | Ok _ -> Alcotest.fail "junk proposal approved"

let test_portal_provisioning () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"carol" ~email:"c@ufmg.br"
           ~affiliation:"UFMG" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Portal.submit portal ~username:"carol" ~id:"portal-prov"
       ~description:"anycast catchment measurements from all PEERING sites"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Portal.forward_queued portal with
  | [ (_, Ok _) ] -> ()
  | _ -> Alcotest.fail "provisioning failed");
  match Portal.provision portal ~experiment_id:"portal-prov" with
  | Error e -> Alcotest.fail e
  | Ok kit ->
    check Alcotest.int "one endpoint per site" 3
      (List.length kit.Portal.tunnel_endpoints);
    (* the generated config parses and compiles with our own tools *)
    let parsed =
      match Peering_router.Config.parse kit.Portal.client_config with
      | Ok c -> c
      | Error e -> Alcotest.fail (Lines.error_to_string e)
    in
    (match Peering_router.Config.bgp parsed with
    | Some bgp ->
      check Alcotest.int "asn 47065" 47065
        (Asn.to_int bgp.Peering_router.Config.asn);
      check Alcotest.int "neighbors = sites" 3
        (List.length bgp.Peering_router.Config.neighbors);
      check Alcotest.int "networks = prefixes" 1
        (List.length bgp.Peering_router.Config.networks)
    | None -> Alcotest.fail "no bgp block in generated config");
    (match Peering_router.Config.compile_route_map parsed "EXPORT" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "generated route-map: %s" e)

(* ------------------------------------------------------------------ *)
(* Remote peering + IPv6 allocation *)

let test_remote_peering () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = []
    }
  in
  let t = Testbed.build ~params () in
  let before = List.length (Testbed.peers_at t "amsterdam01") in
  let fabric = Testbed.add_remote_ixp t ~via:"amsterdam01" in
  let after = List.length (Testbed.peers_at t "amsterdam01") in
  check Alcotest.bool "peers grew" true (after > before);
  check Alcotest.bool "no more than fabric RS users" true
    (after - before
    <= List.length (Peering_ixp.Fabric.route_server_users fabric));
  (* an announcement now also reaches the remote peers directly *)
  let exp =
    match Testbed.new_experiment t ~id:"remote" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-remote" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  check Alcotest.bool "reaches internet" true (Testbed.reach_count t p > 0)

(* The tables [get] gives for [prefixes]: [Testbed.result_for t] for
   the live ones, [Testbed.rebuilt_for t] for what a from-scratch build
   gives under the testbed's current state. *)
let tables get prefixes =
  List.map
    (fun p ->
      match get p with
      | Some r -> Peering_topo.Propagation.table r
      | None -> [])
    prefixes

(* ROAs authorising [origin] for every /24 of PEERING's
   184.164.224.0/19, the prefixes experiments are allocated from. *)
let supply_roas origin =
  List.fold_left
    (fun roas i ->
      Peering_bgp.Rpki.add_roa roas
        ~prefix:(Prefix.make (Ipv4.of_octets 184 164 (224 + i) 0) 24)
        origin)
    Peering_bgp.Rpki.empty (List.init 32 Fun.id)

let matches_rebuild t prefixes what =
  check Alcotest.bool (what ^ ": repaired tables = rebuilt") true
    (tables (Testbed.result_for t) prefixes
    = tables (Testbed.rebuilt_for t) prefixes)

(* Testbed.set_down repairs every table in place. Whatever sequence of
   failures, restores, mux crashes, ROV changes and remote peerings led
   to a table, it must equal a from-scratch build (Testbed.rebuilt_for)
   under the same state. add_remote_ixp changes the graph under the
   tables, so a later repair must start from a table that already
   knows the new edges. *)
let test_set_down_repair_matches_recompute () =
  let t = Testbed.build ~params:small_params () in
  let exp =
    match Testbed.new_experiment t ~id:"churn" ~n_prefixes:3 () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-churn" ~experiment:exp () in
  Testbed.connect_client t client
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  List.iter (fun p -> ignore (Client.announce client p)) exp.Experiment.prefixes;
  let w = Testbed.world t in
  (* An anycast competitor for the first prefix, and a prefix the
     Amsterdam site node originates to every neighbour: its table
     depends on each edge that node has, remote peerings included. *)
  let attacker = List.nth w.Gen.small_transit 2 in
  Testbed.inject_external t ~origin:attacker (List.hd exp.Experiment.prefixes);
  let unfiltered = pfx "198.51.100.0/24" in
  Testbed.inject_external t
    ~origin:(Testbed.site_asn (Testbed.site_exn t "amsterdam01"))
    unfiltered;
  let prefixes = unfiltered :: exp.Experiment.prefixes in
  let matches_rebuild = matches_rebuild t prefixes in
  let baseline = List.map (Testbed.reach_count t) prefixes in
  let mux name = Testbed.site_server (Testbed.site_exn t name) in
  let provider = List.hd (Testbed.peers_at t "gatech01") in
  let tier1 = List.hd w.Gen.tier1 in
  Testbed.set_down t provider true;
  Testbed.set_down t tier1 true;
  matches_rebuild "provider + tier-1 down";
  Server.crash (mux "amsterdam01");
  matches_rebuild "amsterdam mux crashed";
  Testbed.set_down t tier1 false;
  Server.restart (mux "amsterdam01");
  (* ROV is unchanged across set_down, so the repair keeps its filter *)
  let roas =
    Peering_bgp.Rpki.add_roa Peering_bgp.Rpki.empty
      ~prefix:(List.hd exp.Experiment.prefixes) Testbed.peering_asn
  in
  let adopters =
    Asn.Set.of_list
      (List.filteri
         (fun i _ -> i mod 2 = 0)
         (Peering_topo.As_graph.ases (Testbed.graph t)))
  in
  Testbed.set_down t provider false;
  Testbed.set_rov t ~roas ~adopters;
  matches_rebuild "ROV on";
  Testbed.set_down t provider true;
  Testbed.set_down t attacker true;
  matches_rebuild "failures under ROV";
  Testbed.set_down t provider false;
  Testbed.set_down t attacker false;
  matches_rebuild "restores under ROV";
  Testbed.clear_rov t;
  matches_rebuild "all restored";
  check Alcotest.(list int) "reach back to baseline" baseline
    (List.map (Testbed.reach_count t) prefixes);
  ignore (Testbed.add_remote_ixp t ~via:"amsterdam01");
  matches_rebuild "after remote peering";
  Server.crash (mux "gatech01");
  Testbed.set_down t tier1 true;
  matches_rebuild "churn on the grown graph";
  Server.restart (mux "gatech01");
  Testbed.set_down t tier1 false;
  matches_rebuild "grown graph restored"

(* A mux restart re-exports every surviving announcement. Each source
   keeps its slot in the prefix's announcement list, so the restart
   leaves every table — announcement indices included — and every
   catchment exactly as it was: index 0 still names the first site's
   announcement. *)
let test_restart_keeps_slots () =
  let t = Testbed.build ~params:small_params () in
  let exp =
    match Testbed.new_experiment t ~id:"slots" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-slots" ~experiment:exp () in
  Testbed.connect_client t client
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let snapshot () =
    match Testbed.result_for t p with
    | Some r ->
      (Peering_topo.Propagation.table r, Peering_topo.Propagation.catchment r)
    | None -> Alcotest.fail "no table for the announced prefix"
  in
  let table0, catchment0 = snapshot () in
  check Alcotest.int "one slot per site" (List.length (Testbed.sites t))
    (List.length catchment0);
  let mux = Testbed.site_server (Testbed.site_exn t "amsterdam01") in
  Server.crash mux;
  Server.restart mux;
  let table1, catchment1 = snapshot () in
  check Alcotest.(list (pair int int)) "catchment unchanged" catchment0
    catchment1;
  check Alcotest.bool "table unchanged, ann_index included" true
    (table0 = table1)

(* A withdraw, or a disconnect, while the client's only mux is crashed
   must stick: the restart re-exports surviving announcements only, so
   the prefix stays unreached and its safety claim stays released. *)
let test_withdraw_while_crashed () =
  let run ~id ~site leave =
    let t = Testbed.build ~params:small_params () in
    let exp =
      match Testbed.new_experiment t ~id () with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let client = Client.create ~id:("c-" ^ id) ~experiment:exp () in
    Testbed.connect_client t client ~sites:[ site ];
    let p = List.hd exp.Experiment.prefixes in
    ignore (Client.announce client p);
    check Alcotest.bool (id ^ ": reached before the crash") true
      (Testbed.reach_count t p > 0);
    let mux = Testbed.site_server (Testbed.site_exn t site) in
    Server.crash mux;
    check Alcotest.int (id ^ ": unreached while crashed") 0
      (Testbed.reach_count t p);
    leave client mux p;
    Server.restart mux;
    check Alcotest.int (id ^ ": unreached after restart") 0
      (Testbed.reach_count t p);
    check Alcotest.(option string) (id ^ ": no safety owner") None
      (Safety.announced_by (Testbed.safety t) p)
  in
  run ~id:"crash-withdraw" ~site:"gatech01" (fun client _ p ->
      Client.withdraw client p);
  run ~id:"crash-disconnect" ~site:"phoenix01" (fun client mux _ ->
      Client.disconnect client mux)

(* Every announcement change — a re-announce with other peers or
   another poisoned suffix, a withdraw at one site, an external
   injection and its retraction (also from an AS outside the graph),
   two clients of one experiment at one site — repairs the prefix's
   table in place. After each step every
   table must equal a from-scratch build (Testbed.rebuilt_for), with
   ROV on, with a site node down and with a transit AS down. *)
let test_announce_repair_matches_rebuild () =
  let t = Testbed.build ~params:small_params () in
  let w = Testbed.world t in
  let g = Testbed.graph t in
  let sites = List.map Testbed.site_name (Testbed.sites t) in
  let prefixes = ref [] in
  let accepted what outcomes =
    List.iter
      (fun (site, r) ->
        match r with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s: %s refused: %s" what site
            (Safety.reason_to_string e))
      outcomes
  in
  let gatech_provider = List.hd (Testbed.peers_at t "gatech01") in
  let attacker = List.nth w.Gen.small_transit 2 in
  let outsider = asn 64_999 in
  check Alcotest.bool "outsider not in the graph" false
    (Peering_topo.As_graph.mem g outsider);
  let peers = Testbed.all_peers t in
  let half k = List.filteri (fun i _ -> i mod 2 = k) peers in
  let adopters =
    Asn.Set.of_list
      (List.filteri (fun i _ -> i mod 2 = 0) (Peering_topo.As_graph.ases g))
  in
  let set_rov = function
    | None -> Testbed.clear_rov t
    | Some roas -> Testbed.set_rov t ~roas ~adopters
  in
  let run_script name =
    let exp =
      match
        Testbed.new_experiment t ~id:("repair-" ^ name) ~may_poison:true ()
      with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let c1 = Client.create ~id:("c1-" ^ name) ~experiment:exp () in
    let c2 = Client.create ~id:("c2-" ^ name) ~experiment:exp () in
    Testbed.connect_client t c1 ~sites;
    Testbed.connect_client t c2 ~sites:[ "gatech01" ];
    let p = List.hd exp.Experiment.prefixes in
    prefixes := p :: !prefixes;
    let step what f =
      f ();
      matches_rebuild t !prefixes (Printf.sprintf "%s: %s" name what)
    in
    step "announce everywhere" (fun () ->
        accepted "announce" (Client.announce c1 p));
    step "re-announce to half the peers" (fun () ->
        accepted "half" (Client.announce c1 ~peers:(half 0) p));
    step "re-announce poisoned" (fun () ->
        accepted "poison"
          (Client.announce c1 ~path_suffix:[ gatech_provider ] p));
    step "re-announce to the other half" (fun () ->
        accepted "other half" (Client.announce c1 ~peers:(half 1) p));
    step "external injection" (fun () ->
        Testbed.inject_external t ~origin:attacker p);
    step "withdraw at phoenix01" (fun () ->
        Client.withdraw c1 ~servers:[ "phoenix01" ] p);
    step "second client at gatech01 ties at the origin" (fun () ->
        accepted "second client" (Client.announce c2 p));
    step "external retraction" (fun () ->
        Testbed.retract_external t ~origin:attacker p);
    step "injection from outside the graph" (fun () ->
        Testbed.inject_external t ~origin:outsider p);
    step "re-injection from outside the graph" (fun () ->
        Testbed.inject_external t ~origin:outsider ~path_suffix:[ attacker ] p);
    step "retraction from outside the graph" (fun () ->
        Testbed.retract_external t ~origin:outsider p);
    step "second client poisons" (fun () ->
        accepted "second poison"
          (Client.announce c2 ~path_suffix:[ gatech_provider ] p));
    step "second client withdraws" (fun () -> Client.withdraw c2 p);
    step "withdraw everywhere" (fun () -> Client.withdraw c1 p);
    check Alcotest.bool (name ^ ": table dropped") true
      (Testbed.result_for t p = None);
    step "announce again" (fun () ->
        accepted "again" (Client.announce c2 ~peers:(half 0) p))
  in
  run_script "plain";
  set_rov
    (Some
       (supply_roas Testbed.peering_asn));
  matches_rebuild t !prefixes "ROV on";
  run_script "rov";
  set_rov None;
  matches_rebuild t !prefixes "ROV off";
  let phoenix = Testbed.site_asn (Testbed.site_exn t "phoenix01") in
  Testbed.set_down t phoenix true;
  run_script "site-down";
  Testbed.set_down t phoenix false;
  let transit = List.hd w.Gen.large_transit in
  Testbed.set_down t transit true;
  run_script "transit-down";
  Testbed.set_down t transit false;
  matches_rebuild t !prefixes "all restored"

(* The ASes of [r] that are not stable: an up AS is stable when it
   holds the best, under [better], of its origin routes and of its
   neighbours' current exports to it (Gao–Rexford or a leak edge,
   selective export, loop check) that it does not [deny]; a down AS
   holds nothing. *)
let unstable ?(deny = fun _ _ -> false) g ~down ~leaks anns r =
  let module P = Peering_topo.Propagation in
  let anns = Array.of_list anns in
  let leak u v =
    List.exists (fun (a, b) -> Asn.equal a u && Asn.equal b v) leaks
  in
  let best v =
    let best = ref None in
    let consider (c : P.route) =
      match !best with
      | _ when deny v anns.(c.P.ann_index) -> ()
      | Some b when not (P.better c b) -> ()
      | Some _ | None -> best := Some c
    in
    Array.iteri
      (fun i (a : P.announcement) ->
        if Asn.equal a.P.origin v && not (List.exists (Asn.equal v) a.P.path_suffix)
        then consider { P.learned_over = None; path = a.P.path_suffix; ann_index = i })
      anns;
    List.iter
      (fun (u, rel_vu) ->
        match P.route_at r u with
        | Some ru when not (Asn.Set.mem u down) ->
          let rel_uv = Peering_topo.Relationship.invert rel_vu in
          let selective =
            ru.P.learned_over = None
            &&
            match anns.(ru.P.ann_index).P.export_to with
            | Some s -> not (Asn.Set.mem v s)
            | None -> false
          in
          if
            (Peering_topo.Relationship.exports_to ~learned_from:ru.P.learned_over
               rel_uv
            || leak u v)
            && (not selective)
            && not (List.exists (Asn.equal v) ru.P.path)
          then
            consider
              { P.learned_over = Some rel_vu;
                path = u :: ru.P.path;
                ann_index = ru.P.ann_index
              }
        | Some _ | None -> ())
      (Peering_topo.As_graph.neighbors g v);
    !best
  in
  List.filter
    (fun v ->
      P.route_at r v <> if Asn.Set.mem v down then None else best v)
    (Peering_topo.As_graph.ases g)

(* Leak edges for the leaky tests: the first four stubs with two or
   more providers leak to every provider. *)
let provider_leaks g (w : Gen.world) =
  List.filteri (fun i _ -> i < 4)
    (List.filter
       (fun a -> List.length (Peering_topo.As_graph.providers g a) >= 2)
       w.Gen.stubs)
  |> List.concat_map (fun a ->
         List.map (fun p -> (a, p)) (Peering_topo.As_graph.providers g a))

(* Every table of [prefixes] is settled and stable under the testbed's
   leaks and [deny]: re-selecting any AS changes nothing. *)
let check_stable ?deny t ~down prefixes what =
  List.iter
    (fun p ->
      match Testbed.result_for t p with
      | None -> Alcotest.failf "%s: no table for %s" what (Prefix.to_string p)
      | Some r ->
        check Alcotest.bool (what ^ ": settled") true
          (Peering_topo.Propagation.settled r);
        check Alcotest.(list int) (what ^ ": stable") []
          (List.map Asn.to_int
             (unstable ?deny (Testbed.graph t) ~down
                ~leaks:(Testbed.leak_edges t) (Testbed.announcements t p) r)))
    prefixes

(* Announce [n] prefixes of a new experiment [id] at every site. *)
let announce_everywhere t ~id ~n =
  let exp =
    match Testbed.new_experiment t ~id ~n_prefixes:n () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:("c-" ^ id) ~experiment:exp () in
  Testbed.connect_client t client
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  List.iter (fun p -> ignore (Client.announce client p)) exp.Experiment.prefixes;
  exp.Experiment.prefixes

(* set_rov and clear_rov repair every table from the adopters whose
   verdict flips. On the valley-free testbed each repaired table must
   equal a from-scratch build after every change: ROV at half the ASes
   against a hijack, moved to the other half, widened to every AS, a
   ROA that makes PEERING's own origin invalid instead, and ROV off.
   Under leak edges the stable table need not be unique, so there the
   same changes must leave every table settled and stable under the
   new verdicts. *)
let test_rov_repair_matches_rebuild () =
  let module Rpki = Peering_bgp.Rpki in
  let module P = Peering_topo.Propagation in
  let t = Testbed.build ~params:small_params () in
  let g = Testbed.graph t in
  let w = Testbed.world t in
  let prefixes = announce_everywhere t ~id:"rov-delta" ~n:2 in
  let attacker = List.nth w.Gen.small_transit 2 in
  Testbed.inject_external t ~origin:attacker (List.hd prefixes);
  let ases = Peering_topo.As_graph.ases g in
  let half k = Asn.Set.of_list (List.filteri (fun i _ -> i mod 2 = k) ases) in
  let roa = supply_roas in
  let rov = ref None in
  (* The testbed's ROV filter, restated: site nodes announce as
     PEERING's ASN, and no announcement here carries a suffix. *)
  let deny asn (a : P.announcement) =
    match !rov with
    | None -> false
    | Some (roas, adopters) ->
      let origin =
        if
          List.exists
            (fun s -> Asn.equal (Testbed.site_asn s) a.P.origin)
            (Testbed.sites t)
        then Testbed.peering_asn
        else a.P.origin
      in
      Asn.Set.mem asn adopters
      && Rpki.validate roas ~prefix:a.P.prefix ~origin:(Some origin)
         = Rpki.Invalid
  in
  let changes =
    [ ("ROV at half", Some (roa Testbed.peering_asn, half 0));
      ("ROV moved to the other half", Some (roa Testbed.peering_asn, half 1));
      ("ROV everywhere", Some (roa Testbed.peering_asn, Asn.Set.of_list ases));
      ("ROA for the hijacker", Some (roa attacker, half 0));
      ("ROV off", None)
    ]
  in
  let apply (what, v) =
    rov := v;
    (match v with
    | None -> Testbed.clear_rov t
    | Some (roas, adopters) -> Testbed.set_rov t ~roas ~adopters);
    check_stable ~deny t ~down:Asn.Set.empty prefixes what
  in
  let plain = tables (Testbed.result_for t) prefixes and changed = ref 0 in
  List.iter
    (fun ((what, _) as change) ->
      apply change;
      matches_rebuild t prefixes what;
      if tables (Testbed.result_for t) prefixes <> plain then incr changed)
    changes;
  check Alcotest.int "every ROV change but off changed a table"
    (List.length changes - 1) !changed;
  Testbed.set_leak_edges t (provider_leaks g w);
  List.iter
    (fun (what, v) -> apply ("leaky: " ^ what, v))
    changes;
  Testbed.set_leak_edges t [];
  matches_rebuild t prefixes "leaks off"

(* add_remote_ixp repairs every table from the ends of the new edges,
   on the graph frozen again with them. On the valley-free testbed each
   repaired table must equal a from-scratch build, with a transit AS
   down and once it is restored, and every new peer that is up takes
   the Amsterdam node's own prefix straight from it: a one-hop peer
   route beats any route it held before. Under leak edges a second
   expansion must leave every table settled and stable. *)
let test_remote_peering_repair_matches_rebuild () =
  let module P = Peering_topo.Propagation in
  let t = Testbed.build ~params:small_params () in
  let g = Testbed.graph t in
  let w = Testbed.world t in
  let ams = Testbed.site_asn (Testbed.site_exn t "amsterdam01") in
  let unfiltered = pfx "198.51.100.0/24" in
  Testbed.inject_external t ~origin:ams unfiltered;
  let prefixes = unfiltered :: announce_everywhere t ~id:"remote-delta" ~n:2 in
  let transit = List.hd w.Gen.large_transit in
  Testbed.set_down t transit true;
  let neighbours () = List.map fst (Peering_topo.As_graph.neighbors g ams) in
  let before = neighbours () in
  ignore (Testbed.add_remote_ixp t ~via:"amsterdam01");
  let added =
    List.filter (fun a -> not (List.exists (Asn.equal a) before)) (neighbours ())
  in
  check Alcotest.bool "new edges" true (added <> []);
  matches_rebuild t prefixes "after DE-CIX, transit down";
  let r = Option.get (Testbed.result_for t unfiltered) in
  List.iter
    (fun a ->
      if not (Asn.equal a transit) then
        check
          Alcotest.(option (list int))
          (Printf.sprintf "%s takes the direct route" (Asn.to_string a))
          (Some [ Asn.to_int ams ])
          (Option.map (List.map Asn.to_int) (P.path_at r a)))
    added;
  Testbed.set_down t transit false;
  matches_rebuild t prefixes "transit restored";
  Testbed.set_leak_edges t (provider_leaks g w);
  let before = List.length (neighbours ()) in
  ignore (Testbed.add_remote_ixp t ~via:"amsterdam01");
  check Alcotest.bool "LINX adds edges" true
    (List.length (neighbours ()) > before);
  check_stable t ~down:Asn.Set.empty prefixes "leaky: after LINX";
  Testbed.set_leak_edges t [];
  matches_rebuild t prefixes "leaks off"

(* Testbed under leaks: switching leak edges on, failing and restoring
   transit ASes, re-announcing to other peers and injecting an
   external origin all repair the live tables. After every step each
   table must be settled and stable under the active leaks; once the
   leaks clear, each must equal the valley-free table. *)
let test_leaky_tables_stable () =
  let module P = Peering_topo.Propagation in
  let t = Testbed.build ~params:small_params () in
  let g = Testbed.graph t in
  let w = Testbed.world t in
  let exp =
    match Testbed.new_experiment t ~id:"leaks" ~n_prefixes:2 () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-leaks" ~experiment:exp () in
  Testbed.connect_client t client
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  let prefixes = exp.Experiment.prefixes in
  List.iter (fun p -> ignore (Client.announce client p)) prefixes;
  let down = ref Asn.Set.empty in
  let polluted = ref 0 in
  let step what f =
    f ();
    List.iter
      (fun p ->
        match Testbed.result_for t p with
        | None -> Alcotest.failf "%s: no table for %s" what (Prefix.to_string p)
        | Some r ->
          let anns = Testbed.announcements t p in
          check Alcotest.bool (what ^ ": settled") true (P.settled r);
          check Alcotest.(list int) (what ^ ": stable") []
            (List.map Asn.to_int
               (unstable g ~down:!down ~leaks:(Testbed.leak_edges t) anns r));
          polluted := !polluted + List.length (P.polluted g r);
          if Testbed.leak_edges t = [] then
            check Alcotest.bool (what ^ ": = propagate") true
              (P.table r = P.table (P.propagate ~down:!down g anns)))
      prefixes
  in
  let leaks = provider_leaks g w in
  step "leaks on" (fun () -> Testbed.set_leak_edges t leaks);
  check Alcotest.bool "the leaks pollute" true (!polluted > 0);
  let rng = Random.State.make [| 19 |] in
  let transit = Array.of_list (w.Gen.large_transit @ w.Gen.small_transit) in
  for i = 1 to 4 do
    let a = transit.(Random.State.int rng (Array.length transit)) in
    step (Printf.sprintf "transit %d down" i) (fun () ->
        down := Asn.Set.add a !down;
        Testbed.set_down t a true);
    if i mod 2 = 0 then
      step (Printf.sprintf "transit %d restored" i) (fun () ->
          down := Asn.Set.remove a !down;
          Testbed.set_down t a false)
  done;
  let peers = Testbed.all_peers t in
  step "re-announce to half the peers" (fun () ->
      ignore
        (Client.announce client
           ~peers:(List.filteri (fun i _ -> i mod 2 = 0) peers)
           (List.hd prefixes)));
  step "external injection" (fun () ->
      Testbed.inject_external t ~origin:(List.nth w.Gen.small_transit 2)
        (List.hd prefixes));
  step "leaks off" (fun () -> Testbed.set_leak_edges t []);
  check Alcotest.int "nothing polluted once the leaks clear" 0
    (List.fold_left
       (fun acc p ->
         match Testbed.result_for t p with
         | Some r -> acc + List.length (P.polluted g r)
         | None -> acc)
       0 prefixes)

(* ------------------------------------------------------------------ *)
(* Shared tables *)

(* A stub that leaks to both of its providers, which hear the prefix
   only from their provider above them: a leaky world with two stable
   tables (a BGP wedgie). With both paths equally long, the stub picks
   [wedge_low] and leaks to [wedge_high], which prefers that customer
   route. Once [wedge_low] fails and recovers, the stub stays on
   [wedge_high] and [wedge_low] takes the leak instead, while a table
   built afresh reaches the first state again. *)
let wedge_low = asn 396_001
let wedge_high = asn 396_002
let wedge_stub = asn 396_003

let add_wedge t =
  let module G = Peering_topo.As_graph in
  let module R = Peering_topo.Relationship in
  let g = Testbed.graph t in
  let top = List.hd (Testbed.world t).Gen.tier1 in
  List.iter
    (fun a ->
      check Alcotest.bool "wedge AS is new" false (G.mem g a);
      G.add_as g a)
    [ wedge_low; wedge_high; wedge_stub ];
  G.add_edge g top R.Customer wedge_low;
  G.add_edge g top R.Customer wedge_high;
  G.add_edge g wedge_low R.Customer wedge_stub;
  G.add_edge g wedge_high R.Customer wedge_stub

(* A testbed with the wedge, three experiments of four prefixes each,
   every client connected at every site, and the ROA table its script
   last set. *)
type share_env = {
  tb : Testbed.t;
  owned : (Prefix.t * Client.t) array;
  mutable roas : Peering_bgp.Rpki.t option;
}

let share_env () =
  let t = Testbed.build ~params:small_params () in
  add_wedge t;
  let sites = List.map Testbed.site_name (Testbed.sites t) in
  let owned =
    List.concat_map
      (fun i ->
        let id = Printf.sprintf "share%d" i in
        let exp =
          match
            Testbed.new_experiment t ~id ~n_prefixes:4 ~may_poison:true ()
          with
          | Ok e -> e
          | Error e -> Alcotest.fail e
        in
        let c = Client.create ~id:("c-" ^ id) ~experiment:exp () in
        Testbed.connect_client t c ~sites;
        List.map (fun p -> (p, c)) exp.Experiment.prefixes)
      [ 0; 1; 2 ]
  in
  { tb = t; owned = Array.of_list owned; roas = None }

(* One step of a script: a global op every testbed runs, or the own op
   of the prefix at an index of [owned]. *)
type share_step =
  | Global of string * (share_env -> unit)
  | Own of int * string * (share_env -> unit)

let share_ops =
  let half e k =
    List.filteri (fun i _ -> i mod 2 = k) (Testbed.all_peers e.tb)
  in
  let attacker e = List.nth (Testbed.world e.tb).Gen.small_transit 2 in
  let poison suffix _ (p, c) = ignore (Client.announce c ~path_suffix:suffix p) in
  [| ("announce", fun _ (p, c) -> ignore (Client.announce c p));
     ("half 0", fun e (p, c) -> ignore (Client.announce c ~peers:(half e 0) p));
     ("half 1", fun e (p, c) -> ignore (Client.announce c ~peers:(half e 1) p));
     ( "poison",
       fun e pc -> poison [ List.hd (Testbed.peers_at e.tb "gatech01") ] e pc );
     ("withdraw at phoenix01", fun _ (p, c) -> Client.withdraw c ~servers:[ "phoenix01" ] p);
     ("inject", fun e (p, _) -> Testbed.inject_external e.tb ~origin:(attacker e) p);
     ("retract", fun e (p, _) -> Testbed.retract_external e.tb ~origin:(attacker e) p);
     ("withdraw", fun _ (p, c) -> Client.withdraw c p);
     (* not drawn by [seeded] *)
     ("poison the wedge", poison [ wedge_low ]);
     ( "inject at amsterdam01",
       fun e (p, _) ->
         Testbed.inject_external e.tb
           ~origin:(Testbed.site_asn (Testbed.site_exn e.tb "amsterdam01"))
           p )
  |]

let n_seeded = 8

let own i name =
  let f = List.assoc name (Array.to_list share_ops) in
  Own (i, name, fun e -> f e e.owned.(i))

(* [n] seeded own ops on the prefixes at [among]. *)
let seeded rng ?(among = List.init 12 Fun.id) n =
  let among = Array.of_list among in
  List.init n (fun _ ->
      let i = among.(Random.State.int rng (Array.length among)) in
      own i (fst share_ops.(Random.State.int rng n_seeded)))

(* Withdraws dampen a prefix; an hour lifts every suppression. *)
let an_hour =
  Global
    ("an hour passes", fun e -> Engine.run_for (Testbed.engine e.tb) 3601.0)

(* ROAs for the prefixes at [authorised] that name PEERING's ASN, and
   for the others one that names AS 64500: a shape's holders split by
   verdict. *)
let share_roas e authorised =
  let module Rpki = Peering_bgp.Rpki in
  let roas =
    Array.to_list
      (Array.mapi
         (fun i (p, _) ->
           (p, if authorised i then Testbed.peering_asn else asn 64_500))
         e.owned)
  in
  List.fold_left
    (fun acc (p, origin) -> Rpki.add_roa acc ~prefix:p origin)
    Rpki.empty roas

let share_rov authorised parity =
  Global
    ( Printf.sprintf "ROV at ASes of parity %d" parity,
      fun e ->
        let roas = share_roas e authorised in
        let adopters =
          Asn.Set.of_list
            (List.filteri
               (fun i _ -> i mod 2 = parity)
               (Peering_topo.As_graph.ases (Testbed.graph e.tb)))
        in
        e.roas <- Some roas;
        Testbed.set_rov e.tb ~roas ~adopters )

let share_script () =
  let rng = Random.State.make [| 51 |] in
  let transit e = List.hd (Testbed.world e.tb).Gen.large_transit in
  let mux e name = Testbed.site_server (Testbed.site_exn e.tb name) in
  let leaks e =
    [ (wedge_stub, wedge_low); (wedge_stub, wedge_high) ]
    @ provider_leaks (Testbed.graph e.tb) (Testbed.world e.tb)
  in
  (* Prefixes 0-3 (authorised by the first ROAs) and 8-9 (not) keep one
     shape until the leaks, so the first ROAs split it. *)
  let churned = [ 4; 5; 6; 7; 10; 11 ] in
  List.concat
    [ List.init 12 (fun i -> own i "announce");
      seeded rng ~among:churned 12;
      [ Global ("transit down", fun e -> Testbed.set_down e.tb (transit e) true) ];
      seeded rng ~among:churned 8;
      [ Global ("transit restored", fun e -> Testbed.set_down e.tb (transit e) false);
        share_rov (fun i -> i < 8) 0
      ];
      seeded rng ~among:churned 8;
      [ own 0 "poison the wedge";
        own 1 "withdraw";
        own 1 "inject at amsterdam01";
        own 3 "withdraw";
        an_hour;
        Global ("leaks on", fun e -> Testbed.set_leak_edges e.tb (leaks e));
        Global
          ( "the wedge's low provider fails and recovers",
            fun e ->
              Testbed.set_down e.tb wedge_low true;
              Testbed.set_down e.tb wedge_low false );
        (* Now prefix 2's table is in the wedge's second state, and so is
           prefix 1's, the Amsterdam node's alone. Prefix 0's table,
           poisoned at the low provider through the failure, reaches the
           first state when it takes prefix 2's shape; a first
           announcement of prefix 1's shape builds the first state. *)
        own 0 "announce";
        own 3 "inject at amsterdam01"
      ];
      seeded rng 6;
      [ Global ("transit down under leaks", fun e -> Testbed.set_down e.tb (transit e) true) ];
      seeded rng 4;
      [ Global ("leaks off", fun e -> Testbed.set_leak_edges e.tb []);
        Global ("transit restored", fun e -> Testbed.set_down e.tb (transit e) false);
        an_hour;
        share_rov (fun i -> i >= 4) 1
      ];
      seeded rng 6;
      [ Global
          ( "ROV off",
            fun e ->
              e.roas <- None;
              Testbed.clear_rov e.tb )
      ];
      seeded rng 6;
      [ an_hour;
        Global ("remote IXP", fun e -> ignore (Testbed.add_remote_ixp e.tb ~via:"amsterdam01"))
      ];
      seeded rng 6;
      [ Global ("gatech01 crashes", fun e -> Server.crash (mux e "gatech01")) ];
      seeded rng 6;
      [ Global ("gatech01 restarts", fun e -> Server.restart (mux e "gatech01")) ];
      List.init 6 (fun i -> own (2 * i) "withdraw");
      seeded rng 8
    ]

(* The shape a prefix's table depends on, restated: per slot the
   origin, suffix and export set, and the slots whose origin the ROAs
   find invalid (site nodes announce as PEERING's ASN). *)
let restated_shape e p =
  let module P = Peering_topo.Propagation in
  let anns = Testbed.announcements e.tb p in
  let invalid (a : P.announcement) =
    match e.roas with
    | None -> false
    | Some roas ->
      let origin =
        match List.rev a.P.path_suffix with
        | last :: _ -> last
        | [] ->
          if
            List.exists
              (fun s -> Asn.equal (Testbed.site_asn s) a.P.origin)
              (Testbed.sites e.tb)
          then Testbed.peering_asn
          else a.P.origin
      in
      Peering_bgp.Rpki.validate roas ~prefix:p ~origin:(Some origin)
      = Peering_bgp.Rpki.Invalid
  in
  List.map
    (fun (a : P.announcement) ->
      (a.P.origin, a.P.path_suffix, Option.map Asn.Set.elements a.P.export_to, invalid a))
    anns

(* Prefixes announced alike share one table, and the sharing is
   invisible: a seeded script over twelve prefixes in three experiments
   (shapes that collide, diverge and re-converge; ROAs that split one
   shape's holders by verdict; leaks, with joins attempted under them;
   a remote IXP; a mux crash and restart; withdraws) runs on one
   testbed and, filtered to the global ops and one prefix's own, on a
   fresh testbed per prefix. After every step each prefix's table
   equals the one its lone replay holds, and with no leak active two
   prefixes hold one table iff their shapes and verdicts match. *)
let test_shared_tables_invisible () =
  let module P = Peering_topo.Propagation in
  let shared = share_env () in
  let alone = Array.init 12 (fun _ -> share_env ()) in
  let joins = ref 0 in
  List.iteri
    (fun k step ->
      let what =
        match step with
        | Global (name, f) ->
          f shared;
          Array.iter f alone;
          name
        | Own (i, name, f) ->
          f shared;
          f alone.(i);
          Printf.sprintf "prefix %d: %s" i name
      in
      let what = Printf.sprintf "step %d (%s)" k what in
      let table e p = Option.map P.table (Testbed.result_for e.tb p) in
      Array.iteri
        (fun i (p, _) ->
          if table shared p <> table alone.(i) p then
            Alcotest.failf "%s: %s's table differs from its lone replay" what
              (Prefix.to_string p))
        shared.owned;
      if Testbed.leak_edges shared.tb = [] then
        Array.iteri
          (fun i (p, _) ->
            Array.iteri
              (fun j (q, _) ->
                if i < j then
                  match (Testbed.result_for shared.tb p, Testbed.result_for shared.tb q) with
                  | Some r, Some r' ->
                    let same = restated_shape shared p = restated_shape shared q in
                    if same then incr joins;
                    if (r == r') <> same then
                      Alcotest.failf "%s: prefixes %d and %d %s one table" what i j
                        (if same then "do not hold" else "hold")
                  | _ -> ())
              shared.owned)
          shared.owned)
    (share_script ());
  check Alcotest.bool "shapes were shared" true (!joins > 0)

(* One set_down repairs each distinct table once: 8 prefixes announced
   alike and 1 announced to half the peers cost two repairs, with the
   re-selections of a testbed holding one table of each shape. *)
let test_set_down_repairs_each_shape_once () =
  let module M = Peering_obs.Metrics in
  let bed ~alike =
    let t = Testbed.build ~params:small_params () in
    List.iteri
      (fun k n -> ignore (announce_everywhere t ~id:(Printf.sprintf "alike%d" k) ~n))
      alike;
    let half =
      List.filteri (fun i _ -> i mod 2 = 0) (Testbed.all_peers t)
    in
    let exp =
      match Testbed.new_experiment t ~id:"half" () with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let c = Client.create ~id:"c-half" ~experiment:exp () in
    Testbed.connect_client t c
      ~sites:(List.map Testbed.site_name (Testbed.sites t));
    ignore (Client.announce c ~peers:half (List.hd exp.Experiment.prefixes));
    let transit = List.hd (Testbed.world t).Gen.large_transit in
    let repairs = M.counter_value "topo.propagation.repairs"
    and reselects = M.counter_value "topo.propagation.reselects" in
    Testbed.set_down t transit true;
    ( M.counter_value "topo.propagation.repairs" - repairs,
      M.counter_value "topo.propagation.reselects" - reselects )
  in
  let repairs, reselects = bed ~alike:[ 4; 4 ] in
  check Alcotest.int "one repair per shape" 2 repairs;
  let _, one_each = bed ~alike:[ 1 ] in
  check Alcotest.bool "the transit AS moves routes" true (one_each > 2);
  check Alcotest.int "re-selections of one table per shape" one_each reselects

let test_route_server_to_mux_integration () =
  (* Control-plane path the AMS-IX deployment uses: members announce to
     the IXP route server; the server's deliveries feed the PEERING
     mux, which relays per-peer routes to clients. *)
  let e = Engine.create () in
  let safety =
    Safety.create ~peering_asn:(asn 47065) ~owns:(fun _ -> true) ()
  in
  let server =
    Server.create e ~name:"ams" ~asn:(asn 47065) ~safety
      ~export:(fun _ -> ()) ()
  in
  let rs = Peering_ixp.Route_server.create () in
  let members = [ asn 100; asn 200; asn 300 ] in
  List.iter
    (fun m ->
      Peering_ixp.Route_server.connect rs m;
      Server.add_peer server m)
    members;
  Peering_ixp.Route_server.connect rs (asn 47065);
  let exp =
    Experiment.make ~id:"rs-int" ~owner:"o" ()
  in
  exp.Experiment.status <- Experiment.Active;
  let client = Client.create ~id:"rs-client" ~experiment:exp () in
  Client.connect client server;
  (* member 100 announces through the route server *)
  let route =
    Peering_bgp.Route.make
      (pfx "10.100.0.0/16")
      (Peering_bgp.Attrs.make
         ~as_path:(Peering_bgp.As_path.of_asns [ asn 100 ])
         ~next_hop:(Ipv4.of_octets 192 0 2 100)
         ())
  in
  let deliveries, _ =
    Peering_ixp.Route_server.announce rs ~from:(asn 100) route
  in
  (* the server hears the RS delivery addressed to PEERING *)
  List.iter
    (fun (to_member, (r : Peering_bgp.Route.t)) ->
      if Asn.equal to_member (asn 47065) then
        Server.learn_route server ~peer:(asn 100)
          ~path:
            (List.map Fun.id
               (Peering_bgp.As_path.to_asns r.Peering_bgp.Route.attrs.Peering_bgp.Attrs.as_path))
          r.Peering_bgp.Route.prefix)
    deliveries;
  check Alcotest.int "client sees the member route" 1
    (Client.route_count client);
  match Client.best client (pfx "10.100.0.0/16") with
  | Some r ->
    check Alcotest.(option int) "origin preserved" (Some 100)
      (Option.map Asn.to_int
         (Peering_bgp.As_path.origin_asn
            r.Peering_bgp.Route.attrs.Peering_bgp.Attrs.as_path))
  | None -> Alcotest.fail "route missing"

let test_sdx_policy_composition () =
  let e = Engine.create () in
  let fwd = Peering_dataplane.Forwarder.create e in
  let open Peering_dataplane in
  (* Three participants around the fabric. *)
  List.iter (Forwarder.add_node fwd) [ "pA"; "pB"; "pC" ];
  let sdx = Sdx.create e fwd ~name:"test-ix" () in
  Sdx.attach_participant sdx ~asn:(asn 100) ~node:"pA";
  Sdx.attach_participant sdx ~asn:(asn 200) ~node:"pB";
  Sdx.attach_participant sdx ~asn:(asn 300) ~node:"pC";
  (* both B and C can reach the content prefix; C announced first *)
  Sdx.announce sdx ~from:(asn 300) (pfx "198.51.100.0/24");
  Sdx.announce sdx ~from:(asn 200) (pfx "198.51.100.0/24");
  (* A prefers B for web traffic *)
  Sdx.set_policy sdx ~asn:(asn 100)
    [ { Sdx.description = "web-via-B";
        matches =
          { Packet_program.dst_in = Some (pfx "198.51.100.0/24");
            dport = Some 80
          };
        action = Sdx.Forward_to (asn 200)
      };
      (* a bogus rule: D never announced anything covering this *)
      { Sdx.description = "impossible";
        matches =
          { Packet_program.match_any with
            Packet_program.dst_in = Some (pfx "203.0.113.0/24")
          };
        action = Sdx.Forward_to (asn 300)
      }
    ];
  (match Sdx.compile sdx with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "reachability check rejected the bogus rule" 1
    (List.length (Sdx.rejected_rules sdx));
  (* traffic from A enters the fabric from A's edge node: port 80 goes
     to B (policy), port 443 to C (BGP) *)
  Forwarder.set_route fwd "pA" (pfx "198.51.100.0/24")
    (Fib.Via (Sdx.fabric_node sdx));
  let inject dport =
    Forwarder.inject fwd ~at:"pA"
      (Packet.make
         ~src:(Ipv4.of_octets 10 0 100 1)
         ~dst:(Ipv4.of_octets 198 51 100 80)
         ~proto:(Packet.Tcp { sport = 9999; dport })
         ())
  in
  inject 80;
  inject 443;
  Engine.run ~until:2.0 e;
  check Alcotest.int "port 80 delivered via B" 1 (Sdx.delivered_to sdx (asn 200));
  check Alcotest.int "port 443 followed BGP to C" 1
    (Sdx.delivered_to sdx (asn 300));
  check Alcotest.int "A got nothing" 0 (Sdx.delivered_to sdx (asn 100))

let test_rov_containment () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = []
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"rov-test" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-rov" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let attacker = List.nth (Testbed.world t).Gen.small_transit 3 in
  Testbed.inject_external t ~origin:attacker p;
  let hijacked adopters =
    Testbed.set_rov t
      ~roas:
        (Peering_bgp.Rpki.add_roa Peering_bgp.Rpki.empty ~prefix:p
           Testbed.peering_asn)
      ~adopters;
    match Testbed.result_for t p with
    | None -> -1
    | Some r ->
      List.length
        (List.filter
           (fun a ->
             (not (Asn.equal a attacker))
             && Testbed.ingress_site t ~from_asn:a p = None)
           (Peering_topo.Propagation.reachable r))
  in
  let without = hijacked Asn.Set.empty in
  let all = Asn.Set.of_list (Peering_topo.As_graph.ases (Testbed.graph t)) in
  let with_full = hijacked all in
  check Alcotest.bool "hijack succeeds without ROV" true (without > 0);
  check Alcotest.int "universal ROV kills the hijack" 0 with_full;
  Testbed.clear_rov t;
  Testbed.retract_external t ~origin:attacker p

(* A client that announces and withdraws on a fixed cadence through a
   testbed mux, driven by the controller's scheduler: spaced 1800 s
   apart it is never dampened, while every 30 s trips RFC 2439
   dampening in the mux's safety layer. *)
let test_periodic_announce_dampening () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = []
    }
  in
  let t = Testbed.build ~params () in
  let eng = Testbed.engine t in
  let cycle id ~period ~rounds =
    let exp =
      match Testbed.new_experiment t ~id () with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let client = Client.create ~id:("c-" ^ id) ~experiment:exp () in
    Testbed.connect_client t client ~sites:[ "amsterdam01" ];
    let p = List.hd exp.Experiment.prefixes in
    let log = ref [] and suppressed = ref 0 in
    let start = Engine.now (Testbed.engine t) in
    for round = 0 to rounds - 1 do
      let announce_at = start +. (float_of_int (2 * round) +. 1.0) *. period in
      Engine.schedule_at eng ~time:announce_at (fun () ->
          if List.exists (fun (_, r) -> Result.is_ok r) (Client.announce client p)
          then log := `Announce :: !log
          else incr suppressed);
      Engine.schedule_at eng ~time:(announce_at +. period) (fun () ->
          Client.withdraw client p;
          log := `Withdraw :: !log)
    done;
    (p, log, suppressed)
  in
  let p, log, suppressed = cycle "slow" ~period:1800.0 ~rounds:3 in
  Engine.run ~until:(1800.0 *. 8.0) (Testbed.engine t);
  check Alcotest.int "all transitions executed" 6 (List.length !log);
  check Alcotest.int "never suppressed" 0 !suppressed;
  check Alcotest.bool "alternation" true
    (List.rev !log
    = [ `Announce; `Withdraw; `Announce; `Withdraw; `Announce; `Withdraw ]);
  check Alcotest.int "prefix quiescent at the end" 0 (Testbed.reach_count t p);
  let _, _, fast_suppressed = cycle "fast" ~period:30.0 ~rounds:6 in
  Engine.run ~until:(1800.0 *. 8.0 +. 500.0) (Testbed.engine t);
  check Alcotest.bool "fast cadence suppressed" true (!fast_suppressed > 0)

(* ------------------------------------------------------------------ *)
(* Safety.release outcomes (ISSUE 9 regression): releases are
   claim-keyed per (client, prefix); double releases and releases of
   unclaimed prefixes must be explicit no-ops, and a foreign claim
   must survive a release attempt by the wrong client. *)

let test_safety_release_outcomes () =
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  (* release of a prefix nobody ever claimed *)
  check Alcotest.bool "release of unclaimed is Not_claimed" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Not_claimed);
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp ~prefix:p
       ~path_suffix:[]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "announce blocked: %s" (Safety.reason_to_string e));
  (* the wrong client cannot release someone else's claim ... *)
  (match Safety.release s ~client:"intruder" ~prefix:p with
  | Safety.Claimed_by_other owner ->
    check Alcotest.string "claim names the owner" "c1" owner
  | Safety.Released | Safety.Not_claimed ->
    Alcotest.fail "wrong client's release was not refused");
  (* ... and the registration survives the attempt *)
  check Alcotest.(option string) "registration intact" (Some "c1")
    (Safety.announced_by s p);
  (* the claim holder releases; a second release is a double release *)
  check Alcotest.bool "owner release succeeds" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Released);
  check Alcotest.bool "double release is Not_claimed" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Not_claimed);
  check Alcotest.(option string) "registry empty" None (Safety.announced_by s p)

(* ------------------------------------------------------------------ *)
(* Scheduler: fair-share batcher laws (QCheck) *)

(* Random workloads: a quota and a per-tenant demand vector. *)
let gen_batcher_case =
  QCheck.Gen.(
    pair (int_range 1 5) (list_size (int_range 1 6) (int_range 0 25)))

let arb_batcher_case =
  QCheck.make
    ~print:(fun (q, ds) ->
      Printf.sprintf "quota=%d demands=[%s]" q
        (String.concat ";" (List.map string_of_int ds)))
    gen_batcher_case

(* Deficit-round-robin fairness: after r rounds every tenant has been
   granted exactly [min demand (r * quota)] slots, so two tenants that
   both still have queued work never differ by more than one round's
   quota — and FIFO order within a tenant is preserved. *)
let prop_batcher_fair_share =
  QCheck.Test.make ~name:"batcher fair share and FIFO" ~count:200
    arb_batcher_case (fun (quota, demands) ->
      let b = Scheduler.Batcher.create ~quota in
      List.iteri
        (fun i d ->
          for s = 0 to d - 1 do
            Scheduler.Batcher.enqueue b ~tenant:(Printf.sprintf "t%02d" i) (i, s)
          done)
        demands;
      let rounds = Scheduler.Batcher.drain_all b in
      let n = List.length demands in
      let demand = Array.of_list demands in
      let granted = Array.make n 0 in
      let next_seq = Array.make n 0 in
      let ok = ref true in
      List.iteri
        (fun r_idx round ->
          let r = r_idx + 1 in
          List.iter
            (fun (tenant, ops) ->
              let i = int_of_string (String.sub tenant 1 2) in
              if List.length ops > quota then ok := false;
              List.iter
                (fun (ti, seq) ->
                  (* FIFO within the tenant: sequence numbers in order *)
                  if ti <> i || seq <> next_seq.(i) then ok := false;
                  next_seq.(i) <- next_seq.(i) + 1;
                  granted.(i) <- granted.(i) + 1)
                ops)
            round;
          (* exact fair share at every round boundary *)
          for i = 0 to n - 1 do
            if granted.(i) <> min demand.(i) (r * quota) then ok := false
          done;
          (* the satellite's law as stated: tenants with remaining
             demand never deviate by more than one batch *)
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if granted.(i) < demand.(i) && granted.(j) < demand.(j) then
                if abs (granted.(i) - granted.(j)) > quota then ok := false
            done
          done)
        rounds;
      (* everything drains, nothing is invented *)
      for i = 0 to n - 1 do
        if granted.(i) <> demand.(i) then ok := false
      done;
      !ok && Scheduler.Batcher.pending b = 0)

(* FIFO must also survive enqueues interleaved with draining. *)
let test_batcher_interleaved_fifo () =
  let b = Scheduler.Batcher.create ~quota:2 in
  List.iter (fun s -> Scheduler.Batcher.enqueue b ~tenant:"a" s) [ 0; 1; 2 ];
  Scheduler.Batcher.enqueue b ~tenant:"b" 100;
  let r1 = Scheduler.Batcher.drain_round b in
  check
    Alcotest.(list (pair string (list int)))
    "round 1 grants quota per tenant, first-seen order"
    [ ("a", [ 0; 1 ]); ("b", [ 100 ]) ]
    r1;
  List.iter (fun s -> Scheduler.Batcher.enqueue b ~tenant:"a" s) [ 3; 4 ];
  Scheduler.Batcher.enqueue b ~tenant:"b" 101;
  let rest = List.concat (Scheduler.Batcher.drain_all b) in
  check
    Alcotest.(list int)
    "tenant a drains FIFO across interleaved enqueues"
    [ 2; 3; 4 ]
    (List.concat_map (fun (t, ops) -> if t = "a" then ops else []) rest);
  check
    Alcotest.(list int)
    "tenant b drains FIFO" [ 101 ]
    (List.concat_map (fun (t, ops) -> if t = "b" then ops else []) rest)

(* ------------------------------------------------------------------ *)
(* Scheduler: admission control, leases, isolation *)

let sched_proposal = Scheduler.proposal

let admit_ok sched p =
  match Scheduler.admit sched p with
  | Scheduler.Admitted _ -> ()
  | Scheduler.Rejected issues ->
    Alcotest.failf "%s rejected: %s" p.Scheduler.p_tenant
      (String.concat "; "
         (List.map (fun i -> i.Scheduler.issue_message) issues))

let rejected_codes sched p =
  match Scheduler.admit sched p with
  | Scheduler.Admitted _ ->
    Alcotest.failf "%s admitted; expected a rejection" p.Scheduler.p_tenant
  | Scheduler.Rejected issues -> List.map (fun i -> i.Scheduler.issue_code) issues

let rejected_with sched p code =
  check Alcotest.bool
    (Printf.sprintf "%s rejected with %s" p.Scheduler.p_tenant code)
    true
    (List.mem code (rejected_codes sched p))

let conflicts () = Peering_obs.Metrics.counter_value "core.sched.conflicts"

let test_sched_admission () =
  let t = build () in
  let sched = Scheduler.create ~round_interval:0.5 t in
  admit_ok sched (sched_proposal "ten-a");
  admit_ok sched (sched_proposal "ten-b");
  check Alcotest.(list string) "both running" [ "ten-a"; "ten-b" ]
    (Scheduler.tenants sched);
  (* duplicate tenant id *)
  rejected_with sched (sched_proposal "ten-a") "SCHED-DUP";
  (* poisoning another live tenant's origin ASN is sabotage, reported
     and counted once *)
  let a_asns =
    match Scheduler.client sched "ten-a" with
    | Some c -> (Client.experiment c).Experiment.private_asns
    | None -> Alcotest.fail "ten-a has no client"
  in
  let before = conflicts () in
  check
    Alcotest.(list string)
    "cross-poison codes" [ "SCHED-XPOISON" ]
    (rejected_codes sched
       (sched_proposal ~may_poison:true ~poison_targets:a_asns "ten-c"));
  check Alcotest.int "one conflict counted" (before + 1) (conflicts ());
  (* public poison targets without board approval *)
  rejected_with sched
    (sched_proposal ~poison_targets:[ asn 3356 ] "ten-d")
    "SCHED-POISON";
  (* rejected proposals must leave no allocation behind *)
  let ctl = Testbed.controller t in
  let before = Controller.available_blocks ctl in
  rejected_with sched (sched_proposal "ten-a") "SCHED-DUP";
  check Alcotest.int "no allocation leaked by rejection" before
    (Controller.available_blocks ctl);
  (* announce through the batcher; requests outside the lease refused *)
  let pa = List.hd (Scheduler.leased_prefixes sched "ten-a") in
  (match Scheduler.request_announce sched ~tenant:"ten-a" pa with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Scheduler.request_announce sched ~tenant:"ten-b" pa with
  | Ok () -> Alcotest.fail "announce outside lease accepted"
  | Error _ -> ());
  (match Scheduler.request_announce sched ~tenant:"missing" pa with
  | Ok () -> Alcotest.fail "announce for unknown tenant accepted"
  | Error _ -> ());
  ignore (Scheduler.pump sched);
  check Alcotest.bool "announced prefix reaches the world" true
    (Testbed.reach_count t pa > 0);
  check Alcotest.int "no isolation violations" 0
    (Scheduler.isolation_violations sched);
  (* eviction returns the lease to the pool and withdraws the routes *)
  let before = Controller.available_blocks ctl in
  check Alcotest.bool "evict" true
    (Scheduler.evict sched ~tenant:"ten-a" ~reason:"test revocation");
  check Alcotest.bool "evicted tenant gone" false
    (Scheduler.is_running sched "ten-a");
  check Alcotest.int "lease returned to pool" (before + 1)
    (Controller.available_blocks ctl);
  check Alcotest.int "withdrawn on eviction" 0 (Testbed.reach_count t pa);
  check Alcotest.(option string) "safety claim released" None
    (Safety.announced_by (Testbed.safety t) pa)

let test_sched_lease_expiry () =
  let t = build () in
  let eng = Testbed.engine t in
  let sched = Scheduler.create ~round_interval:0.5 t in
  admit_ok sched (sched_proposal "early");
  let p = List.hd (Scheduler.leased_prefixes sched "early") in
  (match Scheduler.request_announce sched ~tenant:"early" p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Engine.run_for eng 5.0;
  check Alcotest.bool "announced via engine-scheduled round" true
    (Testbed.reach_count t p > 0);
  Engine.run_for eng 1800.0;
  admit_ok sched (sched_proposal "late");
  (* every lease runs 3600 s: past the early one's end, before the
     late one's *)
  Engine.run_for eng 1800.0;
  check Alcotest.bool "expired lease evicts the tenant" false
    (Scheduler.is_running sched "early");
  check Alcotest.bool "later lease still running" true
    (Scheduler.is_running sched "late");
  check Alcotest.int "expired tenant's routes withdrawn" 0
    (Testbed.reach_count t p);
  Engine.run_for eng 1805.0;
  check Alcotest.bool "later lease expires too" false
    (Scheduler.is_running sched "late")

let () =
  Alcotest.run "core"
    [ ( "controller",
        [ tc "vetting" `Quick test_controller_vetting;
          tc "pool exhaustion" `Quick test_controller_pool_exhaustion;
          tc "donation" `Quick test_controller_donation
        ] );
      ( "safety",
        [ tc "hijack blocked" `Quick test_safety_hijack_blocked;
          tc "isolation" `Quick test_safety_isolation;
          tc "inactive" `Quick test_safety_inactive;
          tc "poisoning permission" `Quick test_safety_poisoning_permission;
          tc "dampening" `Quick test_safety_dampening;
          tc "dampened while registered" `Quick
            test_safety_dampened_while_registered;
          tc "announce after release" `Quick test_safety_announce_after_release;
          tc "release outcomes" `Quick test_safety_release_outcomes
        ] );
      ( "scheduler",
        [ QCheck_alcotest.to_alcotest prop_batcher_fair_share;
          tc "batcher interleaved FIFO" `Quick test_batcher_interleaved_fifo;
          tc "admission" `Quick test_sched_admission;
          tc "lease expiry" `Quick test_sched_lease_expiry
        ] );
      ("capability", [ tc "table 1 claims" `Quick test_capability_claims ]);
      ( "testbed",
        [ tc "build" `Quick test_testbed_build;
          tc "announce reaches internet" `Quick test_testbed_announce_reaches_internet;
          tc "selective announcement" `Quick test_testbed_selective_announcement;
          tc "hijack contained" `Quick test_testbed_hijack_contained;
          tc "anycast catchment" `Quick test_testbed_anycast_catchment;
          tc "failure avoidance" `Quick test_testbed_failure_avoidance;
          tc "MOAS hijack study" `Quick test_testbed_moas_hijack_study;
          tc "client receives routes" `Quick test_testbed_client_receives_routes;
          tc "session stats" `Quick test_server_session_stats;
          tc "bmp peer order" `Quick test_server_bmp_peer_order
        ] );
      ( "portal",
        [ tc "accounts" `Quick test_portal_accounts;
          tc "advisory board" `Quick test_portal_board;
          tc "provisioning" `Quick test_portal_provisioning
        ] );
      ( "extensions",
        [ tc "remote peering" `Quick test_remote_peering;
          tc "set_down repair = recompute" `Quick
            test_set_down_repair_matches_recompute;
          tc "restart keeps announcement slots" `Quick test_restart_keeps_slots;
          tc "withdraw while crashed sticks" `Quick test_withdraw_while_crashed;
          tc "announce repair = rebuild" `Quick
            test_announce_repair_matches_rebuild;
          tc "leaky tables stable" `Quick test_leaky_tables_stable;
          tc "shared tables invisible" `Quick test_shared_tables_invisible;
          tc "set_down repairs each shape once" `Quick
            test_set_down_repairs_each_shape_once;
          tc "rov repair = rebuild" `Quick test_rov_repair_matches_rebuild;
          tc "remote peering repair = rebuild" `Quick
            test_remote_peering_repair_matches_rebuild;
          tc "route server to mux" `Quick test_route_server_to_mux_integration;
          tc "periodic announce dampening" `Quick
            test_periodic_announce_dampening;
          tc "sdx policy composition" `Quick test_sdx_policy_composition;
          tc "rov containment" `Quick test_rov_containment
        ] )
    ]
