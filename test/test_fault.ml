(* Fault injection and graceful degradation: deterministic plans,
   RFC 4724 retention, reconnect backoff, retransmission of lost
   messages, and the dampening x flap interaction. *)

open Peering_net
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Plan = Peering_fault.Plan
module Injector = Peering_fault.Injector
module Campaign = Peering_fault.Campaign
module Router = Peering_router.Router
module Session = Peering_bgp.Session
module Fsm = Peering_bgp.Fsm
module Forwarder = Peering_dataplane.Forwarder
module Tunnel = Peering_dataplane.Tunnel

let tc = Alcotest.test_case

let wait_until engine pred ~timeout =
  let deadline = Engine.now engine +. timeout in
  let rec go () =
    if pred () then true
    else if Engine.now engine >= deadline then false
    else begin
      Engine.run_for engine 0.25;
      go ()
    end
  in
  go ()

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_plan_sorts () =
  let plan =
    Plan.of_steps
      [ { Plan.at = 5.0; fault = Plan.Session_reset { link = "l" } };
        { Plan.at = 1.0; fault = Plan.Partition { link = "l"; duration = 2.0 } }
      ]
  in
  Alcotest.(check (list (float 0.0)))
    "steps sorted by time" [ 1.0; 5.0 ]
    (List.map (fun (s : Plan.step) -> s.at) plan)

let test_plan_validation () =
  Alcotest.(check bool) "negative time rejected" true
    (raises_invalid (fun () ->
         Plan.of_steps
           [ { Plan.at = -1.0; fault = Plan.Session_reset { link = "l" } } ]));
  Alcotest.(check bool) "loss rate above 1 rejected" true
    (raises_invalid (fun () -> Plan.lossy ~loss:1.5 ()));
  Alcotest.(check bool) "negative duplicate rate rejected" true
    (raises_invalid (fun () -> Plan.lossy ~duplicate:(-0.1) ()))

let test_fault_classes () =
  let classes =
    List.map Plan.fault_class
      [ Plan.Impair { link = "l"; profile = Plan.lossy (); duration = 1.0 };
        Plan.Partition { link = "l"; duration = 1.0 };
        Plan.Session_reset { link = "l" };
        Plan.Mux_crash { mux = "m"; downtime = 1.0 };
        Plan.Tunnel_blackhole { tunnel = "t"; duration = 1.0 }
      ]
  in
  Alcotest.(check (list string))
    "class tags"
    [ "impair"; "partition"; "session_reset"; "mux_crash"; "tunnel_blackhole" ]
    classes

let test_injector_unknown_target () =
  let engine = Engine.create ~seed:1 () in
  let inj = Injector.create engine in
  Alcotest.(check bool) "unknown link rejected" true
    (raises_invalid (fun () ->
         Injector.apply inj (Plan.Session_reset { link = "nope" })))

(* Arming vets the plan against the registry first: a typo raises at
   [arm], before the engine runs or anything is scheduled, not when
   its step would fire. *)
let test_arm_validates () =
  let engine = Engine.create ~seed:1 () in
  let fwd = Forwarder.create engine in
  Forwarder.add_node fwd "a";
  Forwarder.add_node fwd "b";
  let inj = Injector.create engine in
  Injector.add_tunnel inj ~name:"tun0" (Tunnel.establish fwd engine ~a:"a" ~b:"b" ());
  let plan fault = Plan.of_steps [ { Plan.at = 5.0; fault } ] in
  Alcotest.(check bool) "unknown link refused at arm" true
    (raises_invalid (fun () ->
         Injector.arm inj (plan (Plan.Partition { link = "nope"; duration = 1.0 }))));
  Alcotest.(check int) "nothing scheduled" 0 (Engine.pending engine);
  Injector.arm inj (plan (Plan.Tunnel_blackhole { tunnel = "tun0"; duration = 1.0 }));
  Alcotest.(check int) "a clean plan is scheduled" 1 (Engine.pending engine)

(* Static validation: a plan is vetted against the injector's registry
   before arming, so typos and malformed windows fail fast. *)
let test_plan_validate_issues () =
  let targets = { Plan.links = [ "l" ]; muxes = [ "m" ]; tunnels = [ "t" ] } in
  let step at fault = { Plan.at; fault } in
  let clean =
    Plan.of_steps
      [ step 0.0 (Plan.Partition { link = "l"; duration = 5.0 });
        step 10.0 (Plan.Mux_crash { mux = "m"; downtime = 2.0 })
      ]
  in
  Alcotest.(check int) "clean plan has no issues" 0
    (List.length (Plan.validate ~targets clean));
  let typo =
    Plan.of_steps [ step 0.0 (Plan.Session_reset { link = "nope" }) ]
  in
  Alcotest.(check int) "unknown target is an error" 1
    (List.length (Plan.errors (Plan.validate ~targets typo)));
  Alcotest.(check int) "no registry means no target check" 0
    (List.length (Plan.validate typo));
  let hot = { (Plan.lossy ()) with Plan.loss = 1.5 } in
  let bad_rate =
    Plan.of_steps
      [ step 1.0 (Plan.Impair { link = "l"; profile = hot; duration = 1.0 }) ]
  in
  Alcotest.(check bool) "rate outside [0,1] is an error" true
    (Plan.errors (Plan.validate ~targets bad_rate) <> []);
  let zero_window =
    Plan.of_steps
      [ step 0.0 (Plan.Partition { link = "l"; duration = 0.0 }) ]
  in
  Alcotest.(check bool) "non-positive duration is an error" true
    (Plan.errors (Plan.validate ~targets zero_window) <> []);
  let nested =
    Plan.of_steps
      [ step 0.0
          (Plan.Fate_group
             { group = "outer";
               faults =
                 [ Plan.Fate_group
                     { group = "inner";
                       faults = [ Plan.Session_reset { link = "l" } ]
                     }
                 ]
             })
      ]
  in
  Alcotest.(check bool) "nested fate group is an error" true
    (Plan.errors (Plan.validate ~targets nested) <> []);
  let empty =
    Plan.of_steps [ step 0.0 (Plan.Fate_group { group = "g"; faults = [] }) ]
  in
  Alcotest.(check bool) "empty fate group is an error" true
    (Plan.errors (Plan.validate ~targets empty) <> [])

let test_plan_validate_overlap_warning () =
  let targets = { Plan.links = [ "l" ]; muxes = []; tunnels = [ "t" ] } in
  let step at fault = { Plan.at; fault } in
  let overlap =
    Plan.of_steps
      [ step 0.0 (Plan.Partition { link = "l"; duration = 10.0 });
        step 5.0 (Plan.Partition { link = "l"; duration = 10.0 })
      ]
  in
  let issues = Plan.validate ~targets overlap in
  Alcotest.(check bool) "overlapping windows warned" true
    (List.exists (fun (i : Plan.issue) -> i.severity = Plan.Warning) issues);
  Alcotest.(check int) "but they are not errors" 0
    (List.length (Plan.errors issues));
  (* Disjoint windows and different targets stay silent. *)
  let disjoint =
    Plan.of_steps
      [ step 0.0 (Plan.Partition { link = "l"; duration = 4.0 });
        step 5.0 (Plan.Partition { link = "l"; duration = 4.0 });
        step 2.0 (Plan.Tunnel_blackhole { tunnel = "t"; duration = 10.0 })
      ]
  in
  Alcotest.(check int) "disjoint windows are clean" 0
    (List.length (Plan.validate ~targets disjoint))

(* ------------------------------------------------------------------ *)
(* A two-router world for the direct recovery tests. *)

let addr1 = Ipv4.of_octets 192 168 9 1
let addr2 = Ipv4.of_octets 192 168 9 2

let make_pair ~seed ?graceful_restart ~n_prefixes () =
  let engine = Engine.create ~seed () in
  let mk asn router_id =
    Router.create engine ~asn:(Asn.of_int asn) ~router_id ~hold_time:90
      ?graceful_restart ()
  in
  let r1 = mk 65001 addr1 and r2 = mk 65002 addr2 in
  for i = 0 to n_prefixes - 1 do
    Router.originate r1 (Prefix.make (Ipv4.of_octets 10 0 i 0) 24);
    Router.originate r2 (Prefix.make (Ipv4.of_octets 10 1 i 0) 24)
  done;
  let session =
    Router.connect engine ~auto_restart:true (r1, addr1) (r2, addr2)
  in
  (engine, r1, r2, session)

let converged r1 r2 session ~full =
  Session.established session
  && Router.table_size r1 = full
  && Router.table_size r2 = full

let test_graceful_restart_retention () =
  let n = 4 in
  let full = 2 * n in
  let engine, r1, r2, session =
    make_pair ~seed:3 ~graceful_restart:60 ~n_prefixes:n ()
  in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  let marked0 = Metrics.counter_value "bgp.rib.stale_marked" in
  let swept0 = Metrics.counter_value "bgp.rib.stale_swept" in
  Session.reset session ~reason:"test transport loss";
  Engine.run_for engine 0.01;
  (* RFC 4724 helper behaviour: the peer's routes are marked stale and
     retained, not dropped, while the session is down. *)
  Alcotest.(check bool) "routes marked stale" true
    (Metrics.counter_value "bgp.rib.stale_marked" > marked0);
  Alcotest.(check int) "r1 retains the full table" full (Router.table_size r1);
  Alcotest.(check int) "r2 retains the full table" full (Router.table_size r2);
  Alcotest.(check bool) "session re-establishes" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:300.0);
  (* Past the post-resync deferral the stale marks are swept; nothing
     was re-announced differently, so the table is unchanged. *)
  Engine.run_for engine 65.0;
  Alcotest.(check bool) "stale marks swept" true
    (Metrics.counter_value "bgp.rib.stale_swept" >= swept0);
  Alcotest.(check int) "no leaked routes" full (Router.table_size r1)

let test_no_gr_drops_routes () =
  let n = 4 in
  let full = 2 * n in
  let engine, r1, r2, session = make_pair ~seed:4 ~n_prefixes:n () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  Session.reset session ~reason:"test transport loss";
  Engine.run_for engine 0.01;
  (* Without the capability the peer's routes go away immediately. *)
  Alcotest.(check int) "r1 drops the peer's routes" n (Router.table_size r1);
  Alcotest.(check bool) "still re-establishes" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:300.0)

let test_backoff_reconnects () =
  let n = 2 in
  let full = 2 * n in
  let engine, r1, r2, session = make_pair ~seed:5 ~n_prefixes:n () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  for i = 1 to 3 do
    Session.reset session ~reason:(Printf.sprintf "flap %d" i);
    Alcotest.(check bool)
      (Printf.sprintf "re-established after flap %d" i)
      true
      (wait_until engine
         (fun () -> converged r1 r2 session ~full)
         ~timeout:600.0)
  done;
  Alcotest.(check bool) "established at least 4 times" true
    (Fsm.established_count (Session.a session) >= 4)

(* A lost UPDATE on a session that stays up is retransmitted, as TCP
   would resend it: it arrives once the impairment ends, in order, with
   no session reset needed to resynchronize the tables. *)
let test_lost_update_retransmitted () =
  let n = 2 in
  let full = 2 * n in
  let engine, r1, r2, session = make_pair ~seed:7 ~n_prefixes:n () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  let inj = Injector.create engine in
  Injector.add_link inj ~name:"l" session;
  Injector.arm inj
    (Plan.of_steps
       [ { Plan.at = 0.0;
           fault =
             Plan.Impair
               { link = "l"; profile = Plan.lossy ~loss:1.0 (); duration = 5.5 }
         } ]);
  Engine.run_for engine 0.5;
  let kept = Prefix.make (Ipv4.of_octets 10 0 98 0) 24 in
  let flapped = Prefix.make (Ipv4.of_octets 10 0 99 0) 24 in
  Router.originate r1 kept;
  Router.originate r1 flapped;
  (* Times from arming: the announcements, lost at 0.5 s, are resent
     at 1.5, 3.5 and 7.5 s, the last after the impairment ends at
     5.5 s. The withdrawal, sent at 4 s, would get through on its
     second resend at 7 s if nothing held it back behind them. *)
  Engine.run_for engine 3.5;
  Router.withdraw_network r1 flapped;
  Engine.run_for engine 1.0;
  Alcotest.(check int) "nothing arrives while every segment is lost" full
    (Router.table_size r2);
  Alcotest.(check bool) "the lost UPDATE arrives after the impairment" true
    (wait_until engine
       (fun () -> Router.best_route r2 kept <> None)
       ~timeout:120.0);
  Engine.run_for engine 5.0;
  (* In-order delivery: the withdrawal sent after the announcement
     cannot overtake it, so the flapped prefix ends withdrawn. *)
  Alcotest.(check bool) "the later withdrawal wins" true
    (Router.best_route r2 flapped = None);
  Alcotest.(check int) "r2 holds exactly the new table" (full + 1)
    (Router.table_size r2);
  Alcotest.(check int) "the session never reset" 1
    (Fsm.established_count (Session.a session))

(* A transport reset takes the lost segments with it: nothing sent on
   the dead connection surfaces in the next one. *)
let test_reset_discards_pending () =
  let n = 2 in
  let full = 2 * n in
  let engine, r1, r2, session = make_pair ~seed:8 ~n_prefixes:n () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  let inj = Injector.create engine in
  Injector.add_link inj ~name:"l" session;
  Injector.arm inj
    (Plan.of_steps
       [ { Plan.at = 0.0;
           fault =
             Plan.Impair
               { link = "l"; profile = Plan.lossy ~loss:1.0 (); duration = 10.0 }
         } ]);
  Engine.run_for engine 0.5;
  let errors0 = Metrics.counter_value "bgp.fsm.errors" in
  let p = Prefix.make (Ipv4.of_octets 10 0 98 0) 24 in
  Router.originate r1 p;
  Session.reset session ~reason:"test transport loss";
  Alcotest.(check bool) "the next connection carries the route" true
    (wait_until engine
       (fun () -> converged r1 r2 session ~full:(full + 1))
       ~timeout:300.0);
  (* Kept, the UPDATE would be resent at 15.5 s into the new
     connection's OPEN exchange, an FSM error at the passive side. *)
  Engine.run_for engine 30.0;
  Alcotest.(check int) "no stale message reached an FSM" errors0
    (Metrics.counter_value "bgp.fsm.errors")

let test_corrupt_frames_counted () =
  let n = 2 in
  let full = 2 * n in
  let engine, r1, r2, session = make_pair ~seed:6 ~n_prefixes:n () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:60.0);
  let errs0 = Metrics.counter_value "bgp.wire.decode_errors" in
  Session.set_fault_hook session (Some (fun _ -> Some Session.Corrupt));
  Engine.run_for engine 40.0;
  Session.set_fault_hook session None;
  (* Corrupting the marker makes Wire.decode fail deterministically;
     every such frame lands in the decode-error counter. *)
  Alcotest.(check bool) "decode errors counted" true
    (Metrics.counter_value "bgp.wire.decode_errors" > errs0);
  Alcotest.(check bool) "recovers once frames are clean" true
    (wait_until engine (fun () -> converged r1 r2 session ~full) ~timeout:600.0)

(* ------------------------------------------------------------------ *)
(* Generation-guarded window expiry and fate groups. *)

(* Two overlapping blackhole windows on one tunnel: the superseded
   window's expiry must not clear the blackhole early; only the
   newest window's expiry does. *)
let test_overlapping_blackhole_windows () =
  let engine = Engine.create ~seed:8 () in
  let fwd = Forwarder.create engine in
  Forwarder.add_node fwd "a";
  Forwarder.add_node fwd "b";
  let tun = Tunnel.establish fwd engine ~a:"a" ~b:"b" () in
  let inj = Injector.create engine in
  Injector.add_tunnel inj ~name:"t" tun;
  Injector.apply inj (Plan.Tunnel_blackhole { tunnel = "t"; duration = 10.0 });
  Alcotest.(check bool) "blackholed immediately" true (Tunnel.blackholed tun);
  Engine.run_for engine 5.0;
  Injector.apply inj (Plan.Tunnel_blackhole { tunnel = "t"; duration = 10.0 });
  Engine.run_for engine 6.0;
  (* Virtual time 11: the first window's expiry has fired and must
     have been ignored — the second window owns the tunnel until 15. *)
  Alcotest.(check bool) "superseded expiry ignored" true
    (Tunnel.blackholed tun);
  Engine.run_for engine 5.0;
  Alcotest.(check bool) "owning window clears the blackhole" false
    (Tunnel.blackholed tun)

(* The link-impairment analogue, stretched across a mux-crash-style
   outage: the second partition window keeps dropping messages after
   the first window's (superseded) expiry fires. *)
let test_overlapping_partition_windows () =
  let engine = Engine.create ~seed:31 () in
  let mk asn router_id =
    Router.create engine ~asn:(Asn.of_int asn) ~router_id ~hold_time:9 ()
  in
  let a1 = Ipv4.of_octets 192 168 11 1 and a2 = Ipv4.of_octets 192 168 11 2 in
  let r1 = mk 65011 a1 and r2 = mk 65012 a2 in
  Router.originate r1 (Prefix.make (Ipv4.of_octets 10 11 0 0) 24);
  Router.originate r2 (Prefix.make (Ipv4.of_octets 10 12 0 0) 24);
  let session = Router.connect engine ~auto_restart:true (r1, a1) (r2, a2) in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full:2) ~timeout:60.0);
  let inj = Injector.create engine in
  Injector.add_link inj ~name:"l" session;
  Injector.apply inj (Plan.Partition { link = "l"; duration = 10.0 });
  Engine.run_for engine 5.0;
  Injector.apply inj (Plan.Partition { link = "l"; duration = 10.0 });
  Engine.run_for engine 6.0;
  (* Past the superseded expiry: the newer window must still be
     dropping whatever the FSMs (now reconnecting) try to send. *)
  let d0 = Metrics.counter_value "fault.msg_dropped" in
  Engine.run_for engine 3.5;
  Alcotest.(check bool) "later window still drops after superseded expiry" true
    (Metrics.counter_value "fault.msg_dropped" > d0);
  Alcotest.(check bool) "recovers once the owning window expires" true
    (wait_until engine
       (fun () -> converged r1 r2 session ~full:2)
       ~timeout:600.0)

let test_fate_group_application () =
  let engine, r1, r2, session = make_pair ~seed:21 ~n_prefixes:2 () in
  Alcotest.(check bool) "initial convergence" true
    (wait_until engine (fun () -> converged r1 r2 session ~full:4) ~timeout:60.0);
  let fwd = Forwarder.create engine in
  Forwarder.add_node fwd "a";
  Forwarder.add_node fwd "b";
  let tun = Tunnel.establish fwd engine ~a:"a" ~b:"b" () in
  let inj = Injector.create engine in
  Injector.add_link inj ~name:"z-link" session;
  Injector.add_tunnel inj ~name:"tun0" tun;
  let groups0 = Metrics.counter_value "fault.fate_groups" in
  let resets0 = Metrics.counter_value "fault.session_resets" in
  Injector.apply inj
    (Plan.Fate_group
       { group = "conduit";
         faults =
           [ Plan.Session_reset { link = "z-link" };
             Plan.Tunnel_blackhole { tunnel = "tun0"; duration = 3.0 }
           ]
       });
  (* Both members fired at the same instant, and the group counted. *)
  Alcotest.(check bool) "fate group counted" true
    (Metrics.counter_value "fault.fate_groups" > groups0);
  Alcotest.(check bool) "member reset applied" true
    (Metrics.counter_value "fault.session_resets" > resets0);
  Alcotest.(check bool) "member blackhole applied" true (Tunnel.blackholed tun);
  Alcotest.(check bool) "nested group refused" true
    (raises_invalid (fun () ->
         Injector.apply inj
           (Plan.Fate_group
              { group = "outer";
                faults = [ Plan.Fate_group { group = "inner"; faults = [] } ]
              })));
  Engine.run_for engine 4.0;
  Alcotest.(check bool) "blackhole expires" false (Tunnel.blackholed tun);
  Alcotest.(check bool) "session recovers from the reset" true
    (wait_until engine (fun () -> converged r1 r2 session ~full:4) ~timeout:600.0)

(* ------------------------------------------------------------------ *)
(* The dampening x flap interaction (RFC 2439 under a seeded flap
   plan), asserted through the bgp.dampening.* counters. *)

let test_dampening_flap_interaction () =
  let flaps0 = Metrics.counter_value "bgp.dampening.flaps" in
  let supp0 = Metrics.counter_value "bgp.dampening.suppressions" in
  let reuse0 = Metrics.counter_value "bgp.dampening.reuses" in
  let o, rows = Campaign.run_drill ~seed:13 "dampening" in
  Alcotest.(check string) "classified as dampening" "dampening"
    o.Campaign.slo_class;
  Alcotest.(check bool) "every sweep point releases" true
    (rows <> [] && o.Campaign.reconverged);
  Alcotest.(check int) "no routes lost" 0 o.Campaign.routes_lost;
  (* The default parameters need three flaps before the penalty crosses
     the suppress threshold (two decay to just under 2000). *)
  Alcotest.(check bool) "at least three flaps counted" true
    (Metrics.counter_value "bgp.dampening.flaps" - flaps0 >= 3);
  Alcotest.(check bool) "the route was suppressed" true
    (Metrics.counter_value "bgp.dampening.suppressions" - supp0 >= 1);
  Alcotest.(check bool) "and released for reuse" true
    (Metrics.counter_value "bgp.dampening.reuses" - reuse0 >= 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [ ( "plan",
        [ tc "sorts steps" `Quick test_plan_sorts;
          tc "validates" `Quick test_plan_validation;
          tc "fault classes" `Quick test_fault_classes;
          tc "unknown target" `Quick test_injector_unknown_target;
          tc "arm refuses an unknown target" `Quick test_arm_validates;
          tc "static validation issues" `Quick test_plan_validate_issues;
          tc "overlap warnings" `Quick test_plan_validate_overlap_warning
        ] );
      ( "injector",
        [ tc "overlapping blackhole windows" `Quick
            test_overlapping_blackhole_windows;
          tc "overlapping partition windows" `Slow
            test_overlapping_partition_windows;
          tc "fate group application" `Slow test_fate_group_application
        ] );
      ( "recovery",
        [ tc "graceful restart retention" `Quick test_graceful_restart_retention;
          tc "no GR drops routes" `Quick test_no_gr_drops_routes;
          tc "backoff reconnects" `Quick test_backoff_reconnects;
          tc "lost update retransmitted" `Quick test_lost_update_retransmitted;
          tc "reset discards pending" `Quick test_reset_discards_pending;
          tc "corrupt frames counted" `Quick test_corrupt_frames_counted
        ] );
      ( "dampening",
        [ tc "flap plan suppresses and releases" `Slow
            test_dampening_flap_interaction
        ] )
    ]
