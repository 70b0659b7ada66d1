open Peering_net
open Peering_bgp
open Peering_check
module Config = Peering_router.Config
module Relationship = Peering_topo.Relationship
module Engine = Peering_sim.Engine

let check = Alcotest.check
let tc = Alcotest.test_case
let pfx = Prefix.of_string_exn

let codes_of diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) diags
let fired code diags = List.mem code (codes_of diags)

let check_text text = Check.check_config (Config.parse_exn text)

let assert_fires name code text =
  check Alcotest.bool name true (fired code (check_text text))

let assert_quiet name code text =
  check Alcotest.bool name false (fired code (check_text text))

(* A configuration none of the passes should complain about. *)
let clean_config =
  {|
router bgp 64600
 bgp router-id 100.65.0.2
 network 184.164.224.0/24
 neighbor 100.65.0.1 remote-as 47065
 neighbor 100.65.0.1 route-map IMPORT in
 neighbor 100.65.0.1 route-map EXPORT out
ip prefix-list OURS seq 5 permit 184.164.224.0/19 le 24
route-map EXPORT permit 10
 match ip address prefix-list OURS
 set as-path prepend 64600 2
route-map EXPORT deny 20
route-map IMPORT permit 10
|}

(* ------------------------------------------------------------------ *)
(* Diagnostic plumbing *)

let test_diagnostic_render () =
  let d =
    Diagnostic.error ~file:"r.conf" ~line:3 ~hint:"fix it" ~code:"X-TEST"
      "something broke"
  in
  check Alcotest.string "rendering" "r.conf:3: error: [X-TEST] something broke\n  hint: fix it"
    (Diagnostic.to_string d);
  check Alcotest.bool "has_errors" true (Diagnostic.has_errors [ d ]);
  check Alcotest.bool "warning is not an error" false
    (Diagnostic.has_errors [ Diagnostic.warning ~code:"Y" "meh" ]);
  let sorted =
    Diagnostic.sort
      [ Diagnostic.warning ~file:"b" ~line:1 ~code:"B" "late";
        Diagnostic.error ~file:"a" ~line:9 ~code:"A" "early"
      ]
  in
  check Alcotest.(list string) "sorted by file" [ "A"; "B" ] (codes_of sorted)

let test_codes_catalog () =
  let codes = List.map (fun (c, _, _) -> c) Check.codes in
  check Alcotest.bool "at least 10 distinct codes" true
    (List.length (List.sort_uniq String.compare codes) >= 10);
  check Alcotest.int "no duplicates" (List.length codes)
    (List.length (List.sort_uniq String.compare codes))

(* ------------------------------------------------------------------ *)
(* Config passes *)

let test_clean_config_quiet () =
  check Alcotest.(list string) "no diagnostics" []
    (codes_of (check_text clean_config))

let test_clean_config_instantiates () =
  (* The analyzer's contract: a config with no error-severity
     diagnostics instantiates and applies its policies without error. *)
  let c = Config.parse_exn clean_config in
  check Alcotest.bool "no errors" false
    (Diagnostic.has_errors (Check.check_config c));
  let e = Engine.create () in
  match Config.instantiate e c with
  | Error err -> Alcotest.fail err
  | Ok r ->
    (* wire the configured neighbor before attaching its policies *)
    let mux =
      Peering_router.Router.create e ~asn:(Asn.of_int 47065)
        ~router_id:(Ipv4.of_string_exn "100.65.0.1") ()
    in
    ignore
      (Peering_router.Router.connect e
         (r, Ipv4.of_string_exn "100.65.0.2")
         (mux, Ipv4.of_string_exn "100.65.0.1"));
    (match Config.apply_neighbor_policies c r with
    | Ok () -> ()
    | Error err -> Alcotest.fail err)

let test_no_bgp () =
  assert_fires "prefix-list-only file" "RTR-NOBGP"
    "ip prefix-list X seq 5 permit 10.0.0.0/8";
  assert_quiet "clean" "RTR-NOBGP" clean_config

let test_rtmap_undef () =
  assert_fires "missing map" "RTMAP-UNDEF"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 route-map NOPE out";
  assert_quiet "clean" "RTMAP-UNDEF" clean_config

let test_rtmap_unused () =
  assert_fires "dangling map" "RTMAP-UNUSED"
    "router bgp 1\nroute-map ORPHAN permit 10";
  assert_quiet "clean" "RTMAP-UNUSED" clean_config

let test_rtmap_shadow () =
  assert_fires "catch-all shadows" "RTMAP-SHADOW"
    {|router bgp 1
 neighbor 10.0.0.1 remote-as 2
 neighbor 10.0.0.1 route-map M out
route-map M permit 10
route-map M permit 20
 match community 1:100
|};
  (* a guarded entry followed by a catch-all deny is the idiomatic
     allow-list shape and must not be flagged *)
  assert_quiet "guard then deny-all" "RTMAP-SHADOW" clean_config

let test_pfxlist_undef () =
  assert_fires "ghost prefix-list" "PFXLIST-UNDEF"
    {|router bgp 1
 neighbor 10.0.0.1 remote-as 2
 neighbor 10.0.0.1 route-map M out
route-map M permit 10
 match ip address prefix-list GHOST
|};
  assert_quiet "clean" "PFXLIST-UNDEF" clean_config

let test_pfxlist_unused () =
  assert_fires "dangling prefix-list" "PFXLIST-UNUSED"
    "router bgp 1\nip prefix-list ORPHAN seq 5 permit 10.0.0.0/8";
  assert_quiet "clean" "PFXLIST-UNUSED" clean_config

let pl_config rules =
  Printf.sprintf
    {|router bgp 1
 neighbor 10.0.0.1 remote-as 2
 neighbor 10.0.0.1 route-map M out
route-map M permit 10
 match ip address prefix-list PL
%s|}
    rules

let test_pfxlist_shadow () =
  assert_fires "broad rule shadows specific" "PFXLIST-SHADOW"
    (pl_config
       "ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24\n\
        ip prefix-list PL seq 10 deny 10.1.0.0/16 le 20");
  assert_quiet "specific before broad" "PFXLIST-SHADOW"
    (pl_config
       "ip prefix-list PL seq 5 deny 10.1.0.0/16 le 20\n\
        ip prefix-list PL seq 10 permit 10.0.0.0/8 le 24")

let test_pfxlist_bounds () =
  assert_fires "ge greater than le" "PFXLIST-BOUNDS"
    (pl_config "ip prefix-list PL seq 5 permit 10.0.0.0/8 ge 24 le 16");
  assert_fires "le below prefix length" "PFXLIST-BOUNDS"
    (pl_config "ip prefix-list PL seq 5 permit 10.0.0.0/16 le 8");
  (* 'ge' without 'le' opens the window up to /32 (Quagga default) and
     is satisfiable *)
  assert_quiet "ge alone" "PFXLIST-BOUNDS"
    (pl_config "ip prefix-list PL seq 5 permit 10.0.0.0/8 ge 24")

let test_net_dup () =
  assert_fires "duplicate network" "NET-DUP"
    "router bgp 1\n network 10.0.0.0/16\n network 10.0.0.0/16";
  assert_quiet "distinct networks" "NET-DUP"
    "router bgp 1\n network 10.0.0.0/16\n network 10.1.0.0/16\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 route-map M out\nroute-map M permit 10"

let test_nbr_nopolicy () =
  assert_fires "bare neighbor" "NBR-NOPOLICY"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2";
  assert_quiet "clean" "NBR-NOPOLICY" clean_config

let test_timer_degen () =
  assert_fires "hold below keepalive" "TIMER-DEGEN"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 timers 30 10";
  assert_fires "zero connect-retry" "TIMER-DEGEN"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 timers connect 0";
  (* hold time 0 disables the hold timer (RFC 4271) and is legitimate *)
  assert_quiet "hold disabled" "TIMER-DEGEN"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 timers 30 0";
  assert_quiet "sane timers" "TIMER-DEGEN"
    "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 timers 30 90\n neighbor 10.0.0.1 timers connect 5";
  assert_quiet "clean" "TIMER-DEGEN" clean_config

let mutual_a =
  {|router bgp 64600
 bgp router-id 100.65.0.2
 neighbor 100.65.0.1 remote-as 47065
 neighbor 100.65.0.1 route-map M in
 neighbor 100.65.0.1 route-map M out
route-map M permit 10
|}

let mutual_b =
  {|router bgp 47065
 bgp router-id 100.65.0.1
 neighbor 100.65.0.2 remote-as 64600
 neighbor 100.65.0.2 route-map M in
 neighbor 100.65.0.2 route-map M out
route-map M permit 10
|}

let test_session_mismatch () =
  let run texts =
    Check.check_configs
      (List.mapi
         (fun i t -> (Some (Printf.sprintf "r%d.conf" i), Config.parse_exn t))
         texts)
  in
  check Alcotest.bool "mutual pair is consistent" false
    (fired "SESSION-MISMATCH" (run [ mutual_a; mutual_b ]));
  (* half-open: B knows nothing about A *)
  let b_deaf =
    "router bgp 47065\n bgp router-id 100.65.0.1\n neighbor 10.9.9.9 \
     remote-as 65000\n neighbor 10.9.9.9 route-map M in\n neighbor 10.9.9.9 \
     route-map M out\nroute-map M permit 10"
  in
  check Alcotest.bool "half-open session" true
    (fired "SESSION-MISMATCH" (run [ mutual_a; b_deaf ]));
  (* address disagreement: A points the session at an address that is
     not B's router-id *)
  let a_wrong_addr =
    "router bgp 64600\n bgp router-id 100.65.0.2\n neighbor 100.65.9.9 \
     remote-as 47065\n neighbor 100.65.9.9 route-map M in\n neighbor \
     100.65.9.9 route-map M out\nroute-map M permit 10"
  in
  check Alcotest.bool "address mismatch" true
    (fired "SESSION-MISMATCH" (run [ a_wrong_addr; mutual_b ]))

(* ------------------------------------------------------------------ *)
(* Policy passes *)

let entry seq decision conds =
  { Policy.seq; decision; conds; actions = [] }

let test_policy_unsat () =
  let c = Policy.Has_community (Community.make 1 100) in
  let contradictory =
    Policy.of_entries
      [ entry 10 Policy.Permit [ Policy.All [ c; Policy.Not c ] ];
        entry 20 Policy.Permit []
      ]
  in
  check Alcotest.bool "All [c; Not c]" true
    (fired "POLICY-UNSAT" (Check.check_policy contradictory));
  let disjoint =
    Policy.of_entries
      [ entry 10 Policy.Permit
          [ Policy.Prefix_in [ (pfx "10.0.0.0/8", 8, 24) ];
            Policy.Prefix_in [ (pfx "192.168.0.0/16", 16, 24) ]
          ];
        entry 20 Policy.Permit []
      ]
  in
  check Alcotest.bool "disjoint prefix ranges" true
    (fired "POLICY-UNSAT" (Check.check_policy disjoint));
  let empty_window =
    Policy.of_entries
      [ entry 10 Policy.Permit [ Policy.Prefix_in [ (pfx "10.0.0.0/8", 24, 16) ] ];
        entry 20 Policy.Permit []
      ]
  in
  check Alcotest.bool "empty length window" true
    (fired "POLICY-UNSAT" (Check.check_policy empty_window));
  let fine =
    Policy.of_entries
      [ entry 10 Policy.Permit
          [ Policy.Prefix_in [ (pfx "10.0.0.0/8", 8, 24) ];
            Policy.Prefix_in [ (pfx "10.1.0.0/16", 16, 24) ]
          ];
        entry 20 Policy.Deny []
      ]
  in
  check Alcotest.bool "overlapping ranges are fine" false
    (fired "POLICY-UNSAT" (Check.check_policy fine))

let test_policy_dead () =
  let dead =
    Policy.of_entries
      [ entry 10 Policy.Permit [];
        entry 20 Policy.Deny [ Policy.Has_private_asn ]
      ]
  in
  check Alcotest.bool "entry after catch-all" true
    (fired "POLICY-DEAD" (Check.check_policy dead));
  let alive =
    Policy.of_entries
      [ entry 10 Policy.Deny [ Policy.Has_private_asn ];
        entry 20 Policy.Permit []
      ]
  in
  check Alcotest.bool "guard then catch-all" false
    (fired "POLICY-DEAD" (Check.check_policy alive))

let test_policy_leak () =
  let leak rel = Check.check_policy ~relationship:rel Policy.permit_all in
  check Alcotest.bool "permit-all to provider" true
    (fired "POLICY-LEAK" (leak Relationship.Provider));
  check Alcotest.bool "permit-all to peer" true
    (fired "POLICY-LEAK" (leak Relationship.Peer));
  check Alcotest.bool "permit-all to customer is fine" false
    (fired "POLICY-LEAK" (leak Relationship.Customer));
  let guarded =
    Policy.of_entries
      [ entry 10 Policy.Permit
          [ Policy.Prefix_in [ (pfx "184.164.224.0/19", 19, 24) ] ];
        entry 20 Policy.Deny []
      ]
  in
  check Alcotest.bool "guarded export to provider is fine" false
    (fired "POLICY-LEAK" (Check.check_policy ~relationship:Relationship.Provider guarded));
  (* leak severity is error *)
  check Alcotest.bool "leak is an error" true
    (Diagnostic.has_errors (leak Relationship.Provider))

(* ------------------------------------------------------------------ *)
(* Experiment spec passes *)

let spec_text =
  {|# a well-behaved experiment
experiment anycast-demo
prefix 184.164.224.0/24
asn 64512
announce 184.164.224.0/24 at 0 path 64512
withdraw 184.164.224.0/24 at 3600
announce 184.164.224.0/24 at 7200
|}

let test_spec_parse () =
  let s = Spec.parse_exn spec_text in
  check Alcotest.string "id" "anycast-demo" s.Spec.id;
  check Alcotest.(list string) "allocation" [ "184.164.224.0/24" ]
    (List.map Prefix.to_string s.Spec.prefixes);
  check Alcotest.(list int) "asns" [ 64512 ]
    (List.map Asn.to_int s.Spec.asns);
  check Alcotest.bool "no poison vetting" false s.Spec.may_poison;
  check Alcotest.int "events" 3 (List.length s.Spec.events);
  (match s.Spec.events with
  | { Spec.ev_time; ev_line; ev_kind = Spec.Announce [ a ]; _ } :: _ ->
    check (Alcotest.float 0.0) "time" 0.0 ev_time;
    check Alcotest.int "line" 5 ev_line;
    check Alcotest.int "path" 64512 (Asn.to_int a)
  | _ -> Alcotest.fail "first event shape");
  let bad t = match Spec.parse t with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "missing experiment stmt" true (bad "prefix 10.0.0.0/8");
  check Alcotest.bool "bad time" true
    (bad "experiment x\nannounce 10.0.0.0/8 at soon");
  check Alcotest.bool "missing at" true
    (bad "experiment x\nannounce 10.0.0.0/8");
  check Alcotest.bool "unknown statement" true (bad "experiment x\nfrobnicate");
  check Alcotest.bool "clean spec is quiet" true
    (Check.check_spec s = [])

let test_exp_hijack () =
  let hijack =
    Spec.parse_exn
      "experiment evil\nprefix 184.164.224.0/24\nannounce 8.8.8.0/24 at 0"
  in
  check Alcotest.bool "foreign prefix" true
    (fired "EXP-HIJACK" (Check.check_spec hijack));
  let sub =
    Spec.parse_exn
      "experiment fine\nprefix 184.164.224.0/24\nannounce 184.164.224.128/25 at 0"
  in
  check Alcotest.bool "subprefix of allocation" false
    (fired "EXP-HIJACK" (Check.check_spec sub))

let test_exp_poison () =
  let poison =
    Spec.parse_exn
      "experiment sneaky\nprefix 184.164.224.0/24\n\
       announce 184.164.224.0/24 at 0 path 3356"
  in
  check Alcotest.bool "public ASN unvetted" true
    (fired "EXP-POISON" (Check.check_spec poison));
  let vetted =
    Spec.parse_exn
      "experiment lifeguard\nprefix 184.164.224.0/24\nmay-poison\n\
       announce 184.164.224.0/24 at 0 path 3356"
  in
  check Alcotest.bool "vetted poisoning" false
    (fired "EXP-POISON" (Check.check_spec vetted));
  let own =
    Spec.parse_exn
      "experiment own\nprefix 184.164.224.0/24\nasn 61574\n\
       announce 184.164.224.0/24 at 0 path 61574 64512 47065"
  in
  check Alcotest.bool "own, private and mux ASNs allowed" false
    (fired "EXP-POISON" (Check.check_spec own))

let test_exp_dampen () =
  let flappy =
    Spec.parse_exn
      {|experiment flappy
prefix 184.164.224.0/24
announce 184.164.224.0/24 at 0
withdraw 184.164.224.0/24 at 1
announce 184.164.224.0/24 at 1.5
withdraw 184.164.224.0/24 at 2
announce 184.164.224.0/24 at 2.2
withdraw 184.164.224.0/24 at 2.5
announce 184.164.224.0/24 at 3
|}
  in
  let diags = Check.check_spec flappy in
  check Alcotest.bool "rapid flapping trips dampening" true
    (fired "EXP-DAMPEN" diags);
  check Alcotest.int "only the suppressed announcement is flagged" 1
    (List.length (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = "EXP-DAMPEN") diags));
  let calm =
    Spec.parse_exn
      {|experiment calm
prefix 184.164.224.0/24
announce 184.164.224.0/24 at 0
withdraw 184.164.224.0/24 at 3600
announce 184.164.224.0/24 at 7200
withdraw 184.164.224.0/24 at 10800
|}
  in
  check Alcotest.bool "spaced beacon schedule is fine" false
    (fired "EXP-DAMPEN" (Check.check_spec calm))

(* ------------------------------------------------------------------ *)
(* Address-family threading in the policy condition algebra *)

let test_af_windows () =
  (* IPv4 clamps length windows at /32; IPv6 at /128. The hardcoded
     `min le 32` this replaces silently emptied v6-style windows. *)
  let t = (pfx "10.0.0.0/8", 8, 64) in
  check Alcotest.(pair int int) "v4 clamps to 32" (8, 32)
    (Policy_checks.triple_window t);
  check Alcotest.(pair int int) "v6 keeps 64" (8, 64)
    (Policy_checks.triple_window ~af:Policy_checks.V6 t);
  check Alcotest.int "max_prefix_len v4" 32
    (Policy_checks.max_prefix_len Policy_checks.V4);
  check Alcotest.int "max_prefix_len v6" 128
    (Policy_checks.max_prefix_len Policy_checks.V6)

let test_af_taut_unsat () =
  let any32 = Policy.Prefix_in [ (pfx "0.0.0.0/0", 0, 32) ] in
  let any128 = Policy.Prefix_in [ (pfx "0.0.0.0/0", 0, 128) ] in
  check Alcotest.bool "0/0 le 32 is taut under v4" true
    (Policy_checks.cond_taut any32);
  check Alcotest.bool "0/0 le 32 is NOT taut under v6" false
    (Policy_checks.cond_taut ~af:Policy_checks.V6 any32);
  check Alcotest.bool "0/0 le 128 is taut under v6" true
    (Policy_checks.cond_taut ~af:Policy_checks.V6 any128);
  (* a window beyond /32 is empty for v4 but satisfiable for v6 *)
  let deep = Policy.Prefix_in [ (pfx "10.0.0.0/8", 48, 64) ] in
  check Alcotest.bool "ge 48 unsat under v4" true
    (Policy_checks.cond_unsat deep);
  check Alcotest.bool "ge 48 satisfiable under v6" false
    (Policy_checks.cond_unsat ~af:Policy_checks.V6 deep);
  (* the af default keeps the old per-file behaviour *)
  let i =
    Policy_checks.input ~af:Policy_checks.V6
      (Policy.of_entries
         [ entry 10 Policy.Permit [ deep ]; entry 20 Policy.Permit [] ])
  in
  check Alcotest.bool "V6 input accepts a deep window" false
    (fired "POLICY-UNSAT" (Policy_checks.unsatisfiable_entries i))

(* ------------------------------------------------------------------ *)
(* World parsing and the semantic passes *)

module World = Peering_check.World

let leaky_world_text =
  {|as 10 tier1
as 20 small-transit
as 30 small-transit
as 40 stub
edge 20 provider 10
edge 30 provider 10
edge 20 peer 30
edge 40 provider 20
originate 30 198.51.100.0/24
originate 40 203.0.113.0/24
leak 20 10
|}

let test_world_parse () =
  let w = World.parse_exn leaky_world_text in
  let g = World.graph w in
  check Alcotest.int "ases" 4 (Peering_topo.As_graph.n_ases g);
  check Alcotest.int "edges" 4 (Peering_topo.As_graph.n_edges g);
  check Alcotest.int "prefixes" 2 (Peering_topo.As_graph.n_prefixes g);
  check Alcotest.bool "leak edge is Any_class" true
    ((World.export_at w (Asn.of_int 20) (Asn.of_int 10)).World.classes
    = World.Any_class);
  check Alcotest.bool "other edges default" true
    (World.export_at w (Asn.of_int 30) (Asn.of_int 10) = World.default_export);
  let bad t = match World.parse t with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "undeclared AS in edge" true (bad "edge 1 peer 2");
  check Alcotest.bool "duplicate AS" true (bad "as 1\nas 1");
  check Alcotest.bool "duplicate edge" true
    (bad "as 1\nas 2\nedge 1 peer 2\nedge 2 peer 1");
  check Alcotest.bool "unknown kind" true (bad "as 1 mega-transit");
  check Alcotest.bool "leak needs an edge" true (bad "as 1\nas 2\nleak 1 2");
  check Alcotest.bool "unknown statement" true (bad "frobnicate")

let test_world_local_pref () =
  let w = World.parse_exn leaky_world_text in
  check Alcotest.(option int) "customer default" (Some 300)
    (World.local_pref w ~at:(Asn.of_int 10) ~from:(Asn.of_int 20));
  check Alcotest.(option int) "peer default" (Some 200)
    (World.local_pref w ~at:(Asn.of_int 20) ~from:(Asn.of_int 30));
  check Alcotest.(option int) "provider default" (Some 100)
    (World.local_pref w ~at:(Asn.of_int 20) ~from:(Asn.of_int 10));
  check Alcotest.(option int) "not adjacent" None
    (World.local_pref w ~at:(Asn.of_int 40) ~from:(Asn.of_int 10));
  World.set_local_pref w ~at:(Asn.of_int 20) ~from:(Asn.of_int 10) 350;
  check Alcotest.(option int) "override" (Some 350)
    (World.local_pref w ~at:(Asn.of_int 20) ~from:(Asn.of_int 10))

let test_abstract_of_policy () =
  let guarded =
    Policy.of_entries
      [ entry 10 Policy.Permit
          [ Policy.Prefix_in [ (pfx "184.164.224.0/19", 19, 24) ] ];
        entry 20 Policy.Deny []
      ]
  in
  (match World.abstract_of_policy guarded with
  | { World.classes = World.Any_class; prefixes = World.Windows [ w ] } ->
    check Alcotest.bool "window kept" true (w = (pfx "184.164.224.0/19", 19, 24))
  | _ -> Alcotest.fail "guarded policy should lower to one window");
  (match World.abstract_of_policy Policy.permit_all with
  | { World.classes = World.Any_class; prefixes = World.Any_prefix } -> ()
  | _ -> Alcotest.fail "permit-all lowers to Any_prefix");
  let deny_all = Policy.of_entries [ entry 10 Policy.Deny [] ] in
  match World.abstract_of_policy deny_all with
  | { World.prefixes = World.No_prefix; _ } -> ()
  | _ -> Alcotest.fail "deny-all lowers to No_prefix"

let test_leak_analysis () =
  let w = World.parse_exn leaky_world_text in
  let ann =
    Peering_topo.Propagation.announce (Asn.of_int 30) (pfx "198.51.100.0/24")
  in
  let v = Leak_analysis.analyze w ann in
  check Alcotest.(list int) "everyone may hold the route"
    [ 10; 20; 30; 40 ]
    (List.map Asn.to_int (Asn.Set.elements v.Leak_analysis.reachable));
  (* the leaked route crosses 20 -> 10 and then re-descends everywhere *)
  check Alcotest.(list int) "taint reaches the whole world"
    [ 10; 20; 30; 40 ]
    (List.map Asn.to_int (Asn.Set.elements v.Leak_analysis.tainted));
  check Alcotest.bool "fixpoint terminates with work done" true
    (v.Leak_analysis.iterations > 0);
  (* without the leak nothing is tainted *)
  let clean =
    World.parse_exn
      (String.concat "\n"
         (List.filter
            (fun l -> not (String.length l >= 4 && String.sub l 0 4 = "leak"))
            (String.split_on_char '\n' leaky_world_text)))
  in
  let v' = Leak_analysis.analyze clean ann in
  check Alcotest.int "no taint without leak" 0
    (Asn.Set.cardinal v'.Leak_analysis.tainted);
  check Alcotest.(list string) "LEAK codes fire on the leaky world"
    [ "LEAK-EDGE"; "LEAK-REACH" ]
    (List.sort_uniq String.compare (codes_of (Check.check_world w)));
  check Alcotest.(list string) "clean world is quiet" []
    (codes_of (Check.check_world clean))

let test_leak_peerlock () =
  (* Peerlock at the receiving provider: 10 protects 30, and the
     leaked path 30 -> 20 -> 10 always carries 30 (must-information),
     so the static analysis can soundly block the leak at 10. *)
  let w = World.parse_exn leaky_world_text in
  World.add_peerlock w ~at:(Asn.of_int 10) ~protect:(Asn.of_int 30);
  let ann =
    Peering_topo.Propagation.announce (Asn.of_int 30) (pfx "198.51.100.0/24")
  in
  let v = Leak_analysis.analyze w ann in
  check Alcotest.bool "peerlock blocks the taint at 10" false
    (Asn.Set.mem (Asn.of_int 10) v.Leak_analysis.tainted)

let test_stability () =
  let w = World.parse_exn leaky_world_text in
  check Alcotest.int "default prefs: no risky edges" 0
    (List.length (Stability.risky_edges w));
  (* one risky session: 20 imports its provider at customer level *)
  World.set_local_pref w ~at:(Asn.of_int 20) ~from:(Asn.of_int 10) 300;
  (match Stability.risky_edges w with
  | [ (v, u, rel, pref, floor) ] ->
    check Alcotest.int "risky at" 20 (Asn.to_int v);
    check Alcotest.int "risky from" 10 (Asn.to_int u);
    check Alcotest.bool "provider session" true (rel = Relationship.Provider);
    check Alcotest.(pair int int) "pref vs floor" (300, 300) (pref, floor)
  | l -> Alcotest.failf "expected one risky edge, got %d" (List.length l));
  check Alcotest.bool "STAB-PREF fires" true
    (fired "STAB-PREF" (Check.check_world w));
  check Alcotest.bool "no wheel from one edge" false
    (fired "STAB-WHEEL" (Check.check_world w));
  (* a peer triangle of customer-level imports is a dispute wheel *)
  let tri =
    World.parse_exn
      "as 1\nas 2\nas 3\nedge 1 peer 2\nedge 2 peer 3\nedge 3 peer 1\n\
       local-pref 1 2 300\nlocal-pref 2 3 300\nlocal-pref 3 1 300"
  in
  check Alcotest.bool "STAB-WHEEL fires on the triangle" true
    (fired "STAB-WHEEL" (Check.check_world tri));
  check Alcotest.int "three risky sessions" 3
    (List.length (Stability.risky_edges tri))

let test_graph_structure () =
  let split = World.parse_exn "as 1\nas 2\nas 3\nedge 1 peer 2" in
  check Alcotest.bool "partition fires" true
    (fired "GRAPH-PARTITION" (Check.check_world split));
  let cyc =
    World.parse_exn
      "as 1\nas 2\nas 3\nedge 1 provider 2\nedge 2 provider 3\nedge 3 provider 1"
  in
  check Alcotest.bool "relationship cycle fires" true
    (fired "GRAPH-RELCYCLE" (Check.check_world cyc));
  let moas =
    World.parse_exn
      "as 1\nas 2\nedge 1 peer 2\noriginate 1 10.0.0.0/8\noriginate 2 10.0.0.0/8"
  in
  check Alcotest.bool "MOAS fires" true
    (fired "GRAPH-MOAS" (Check.check_world moas))

let test_spec_conflicts () =
  let a =
    Spec.parse_exn
      "experiment a\nprefix 184.164.224.0/24\nasn 64512\nasn 64513\n\
       announce 184.164.224.0/24 at 0"
  in
  let b =
    Spec.parse_exn
      "experiment b\nprefix 184.164.224.128/25\nasn 64512\nmay-poison\n\
       announce 184.164.224.128/25 at 0 path 64513"
  in
  let diags = Check.check_specs [ (None, a); (None, b) ] in
  check Alcotest.bool "overlap" true (fired "XEXP-OVERLAP" diags);
  check Alcotest.bool "shared asn" true (fired "XEXP-ASN" diags);
  check Alcotest.bool "cross poison" true (fired "XEXP-POISON" diags);
  let c =
    Spec.parse_exn
      "experiment c\nprefix 184.164.230.0/24\nasn 64600\n\
       announce 184.164.230.0/24 at 0"
  in
  check Alcotest.(list string) "disjoint specs are quiet" []
    (codes_of (Check.check_specs [ (None, a); (None, c) ]))

(* ------------------------------------------------------------------ *)
(* Catalog integrity: the codes the fixtures under test/fixtures/bad
   fire and the published catalog must stay in lockstep, both ways. *)

let read_fixture file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* Every code some fixture fires, sorted and deduplicated. *)
let fixture_codes () =
  (* cwd is test/ under `dune runtest`, the project root under
     `dune exec` — accept either *)
  let dir =
    if Sys.file_exists "fixtures/bad" then "fixtures/bad"
    else "test/fixtures/bad"
  in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  let fired_codes = ref [] in
  let note diags =
    fired_codes := codes_of diags @ !fired_codes
  in
  let configs = ref [] and specs = ref [] in
  List.iter
    (fun file ->
      let text = read_fixture file in
      if Filename.check_suffix file ".exp" then
        match Spec.parse text with
        | Ok s -> specs := (Some file, s) :: !specs
        | Error _ -> fired_codes := "PARSE" :: !fired_codes
      else if Filename.check_suffix file ".world" then
        match World.parse text with
        | Ok w -> note (Check.check_world w)
        | Error _ -> fired_codes := "PARSE" :: !fired_codes
      else
        match Config.parse text with
        | Ok c ->
          configs := (Some file, c) :: !configs;
          (* compiled route-maps double as policy-pass fixtures,
             vetted as exports towards a provider *)
          List.iter
            (fun name ->
              match Config.compile_route_map c name with
              | Ok p ->
                note
                  (Check.check_policy ~name
                     ~relationship:Relationship.Provider p)
              | Error _ -> ())
            (Config.route_map_names c)
        | Error _ -> fired_codes := "PARSE" :: !fired_codes)
    files;
  note (Check.check_configs (List.rev !configs));
  note (Check.check_specs (List.rev !specs));
  List.sort_uniq String.compare !fired_codes

let catalog () = List.map (fun (c, _, _) -> c) Check.codes

let test_catalog_drift () =
  let catalog = catalog () in
  check Alcotest.int "no duplicate catalog entries"
    (List.length catalog)
    (List.length (List.sort_uniq String.compare catalog));
  check Alcotest.(list string) "every fired code is in the catalog" []
    (List.filter (fun c -> not (List.mem c catalog)) (fixture_codes ()))

let test_fixture_coverage () =
  let seen = fixture_codes () in
  check Alcotest.(list string) "every catalog code has a fixture" []
    (List.filter (fun c -> not (List.mem c seen)) (catalog ()))

let test_check_experiment () =
  (* the programmatic path: vet an Experiment.t plus a schedule *)
  let exp =
    Peering_core.Experiment.make ~id:"prog" ~owner:"o"
      ~description:"a programmatic experiment used by the analyzer tests" ()
  in
  exp.Peering_core.Experiment.prefixes <- [ pfx "184.164.230.0/24" ];
  let ev time prefix kind =
    { Spec.ev_time = time; ev_line = 0; ev_prefix = prefix; ev_kind = kind }
  in
  let bad =
    Check.check_experiment exp [ ev 0.0 (pfx "8.8.8.0/24") (Spec.Announce []) ]
  in
  check Alcotest.bool "hijack caught programmatically" true
    (fired "EXP-HIJACK" bad);
  let good =
    Check.check_experiment exp
      [ ev 0.0 (pfx "184.164.230.0/24") (Spec.Announce []) ]
  in
  check Alcotest.(list string) "clean programmatic schedule" []
    (codes_of good)

let () =
  Alcotest.run "check"
    [ ( "plumbing",
        [ tc "diagnostic rendering" `Quick test_diagnostic_render;
          tc "codes catalog" `Quick test_codes_catalog
        ] );
      ( "config",
        [ tc "clean config quiet" `Quick test_clean_config_quiet;
          tc "clean config instantiates" `Quick test_clean_config_instantiates;
          tc "RTR-NOBGP" `Quick test_no_bgp;
          tc "RTMAP-UNDEF" `Quick test_rtmap_undef;
          tc "RTMAP-UNUSED" `Quick test_rtmap_unused;
          tc "RTMAP-SHADOW" `Quick test_rtmap_shadow;
          tc "PFXLIST-UNDEF" `Quick test_pfxlist_undef;
          tc "PFXLIST-UNUSED" `Quick test_pfxlist_unused;
          tc "PFXLIST-SHADOW" `Quick test_pfxlist_shadow;
          tc "PFXLIST-BOUNDS" `Quick test_pfxlist_bounds;
          tc "NET-DUP" `Quick test_net_dup;
          tc "NBR-NOPOLICY" `Quick test_nbr_nopolicy;
          tc "TIMER-DEGEN" `Quick test_timer_degen;
          tc "SESSION-MISMATCH" `Quick test_session_mismatch
        ] );
      ( "policy",
        [ tc "POLICY-UNSAT" `Quick test_policy_unsat;
          tc "POLICY-DEAD" `Quick test_policy_dead;
          tc "POLICY-LEAK" `Quick test_policy_leak
        ] );
      ( "experiment",
        [ tc "spec parse" `Quick test_spec_parse;
          tc "EXP-HIJACK" `Quick test_exp_hijack;
          tc "EXP-POISON" `Quick test_exp_poison;
          tc "EXP-DAMPEN" `Quick test_exp_dampen;
          tc "programmatic experiment" `Quick test_check_experiment
        ] );
      ( "address-family",
        [ tc "length windows clamp per family" `Quick test_af_windows;
          tc "taut/unsat respect the family" `Quick test_af_taut_unsat
        ] );
      ( "world",
        [ tc "parser" `Quick test_world_parse;
          tc "local-pref defaults" `Quick test_world_local_pref;
          tc "policy lowering" `Quick test_abstract_of_policy;
          tc "leak fixpoint" `Quick test_leak_analysis;
          tc "peerlock blocks taint" `Quick test_leak_peerlock;
          tc "stability" `Quick test_stability;
          tc "graph structure" `Quick test_graph_structure;
          tc "cross-spec conflicts" `Quick test_spec_conflicts
        ] );
      ( "catalog",
        [ tc "no drift vs fixtures" `Quick test_catalog_drift;
          tc "every code has a fixture" `Quick test_fixture_coverage
        ] )
    ]
