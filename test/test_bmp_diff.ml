(* @bmp-diff: byte-identity harness for the live BMP telemetry plane.

   Every scenario wires each mux's BMP feed (Server.set_bmp_sink) into
   one Peering_measure.Monitor station and then demands that the
   station's reconstructed Adj-RIB-In is *byte-identical* — equal
   Marshal digests over the canonical dump — to the live mux table:

   1. Plain propagation: seeded reduced testbeds, peer routes fed at
      every site, plus a crash/restart cycle (Peer Down/Termination,
      re-Initiation, refeed). Also cross-checks every Stats Report
      against the reconstructed table's cardinality, and the
      bgp.session.state{peer,site} gauge against Monitor.peer_up
      across the crash.
   2. Scheduler churn: tenants admitted, announcing, pumped and
      evicted while the feeds run; the mirror must not drift.
   3. Chaos drills: >= 2 campaign drills (compound, fate_group) with a
      station attached inside the drill via Campaign.run_drill
      ~on_world; after recovery every mux's digest must match.
   4. Detector precision: clean runs (scenarios 1-3, with detectors
      armed on invariants that hold) raise zero alerts, and each
      injected MOAS / out-of-cone leak / flap storm / reachability dip
      raises its alert exactly once, dedup included.

   Widen the sweep with BMP_DIFF_SEEDS=<n> (default 5). *)

open Peering_net
open Peering_core
module Gen = Peering_topo.Gen
module Engine = Peering_sim.Engine
module Monitor = Peering_measure.Monitor
module Campaign = Peering_fault.Campaign
module Metrics = Peering_obs.Metrics
module Event = Peering_obs.Event

let n_seeds =
  match Sys.getenv_opt "BMP_DIFF_SEEDS" with
  | None -> 5
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> invalid_arg "BMP_DIFF_SEEDS must be a positive integer")

let seeds = List.init n_seeds (fun i -> i + 1)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* ~685 ASes: the smallest world that seats AMS-IX's 669 members,
   enough peers per site for real tables, fast enough to rebuild per
   seed. The chaos scenario uses the campaign's own full
   default world instead. *)
let world seed =
  { Gen.seed;
    n_tier1 = 3;
    n_large_transit = 5;
    n_small_transit = 12;
    n_stub = 660;
    n_content = 5;
    target_prefixes = 150
  }

let params seed =
  { Testbed.default_params with
    Testbed.world = world seed;
    seed;
    university_sites = [ ("gatech01", 2); ("usc01", 2) ]
  }

let attach mon tb =
  List.iter
    (fun site ->
      let srv = Testbed.site_server site in
      Server.set_bmp_sink srv
        (Some (Monitor.feed mon ~mux:(Server.name srv))))
    (Testbed.sites tb)

let check_digests ~ctx mon tb =
  List.iter
    (fun site ->
      let srv = Testbed.site_server site in
      let name = Server.name srv in
      let live = Server.rib_digest srv in
      let rebuilt = Monitor.rib_digest mon ~mux:name in
      if live <> rebuilt then
        fail "%s: mux %s reconstruction diverged (live %s, rebuilt %s)" ctx
          name live rebuilt;
      if Monitor.buffered mon ~mux:name <> 0 then
        fail "%s: mux %s left %d bytes buffered mid-frame" ctx name
          (Monitor.buffered mon ~mux:name))
    (Testbed.sites tb)

let check_clean ~ctx mon =
  (match Monitor.alerts mon with
  | [] -> ()
  | a :: _ ->
    fail "%s: false-positive alert [%s] at %s: %s" ctx
      (Event.alert_kind_to_string a.Monitor.a_kind)
      (Prefix.to_string a.Monitor.a_prefix)
      a.Monitor.a_detail);
  if Monitor.parse_errors mon <> 0 then
    fail "%s: %d parse errors on a clean feed" ctx (Monitor.parse_errors mon)

(* Arm every detector on invariants that hold in an undisturbed run,
   so "zero alerts" actually exercises the detectors. *)
let arm_benign mon tb =
  Monitor.watch_moas mon
    (Prefix.of_string_exn "203.0.113.0/24")
    ~origin:(Asn.of_int 64999);
  Monitor.watch_flaps mon (Prefix.of_string_exn "192.0.2.0/24");
  List.iter
    (fun site ->
      let name = Testbed.site_name site in
      List.iter
        (fun peer -> Monitor.allow_export mon ~mux:name ~peer (fun _ -> true))
        (Testbed.peers_at tb name))
    (Testbed.sites tb)

let gauge_value name labels =
  List.find_map
    (fun (r : Metrics.row) ->
      if
        r.Metrics.name = name
        && List.sort compare r.Metrics.labels = List.sort compare labels
      then
        match r.Metrics.value with
        | Metrics.Gauge_v { value; _ } -> Some value
        | _ -> None
      else None)
    (Metrics.snapshot ~include_volatile:true ())

let session_gauge srv peer =
  gauge_value "bgp.session.state"
    [ ("peer", Asn.to_string peer); ("site", Server.name srv) ]

(* ------------------------------------------------------------------ *)
(* Scenario 1: plain propagation + a crash/restart cycle *)

let feed_all tb =
  List.fold_left
    (fun acc site ->
      acc
      + Testbed.feed_peer_routes tb ~site:(Testbed.site_name site))
    0 (Testbed.sites tb)

let check_stats_reports ~ctx mon tb =
  List.iter
    (fun site ->
      let name = Testbed.site_name site in
      List.iter
        (fun (asn, bindings) ->
          match Monitor.reported_routes mon ~mux:name ~peer:(Asn.of_int asn) with
          | None -> fail "%s: mux %s peer %d never sent a Stats Report" ctx name asn
          | Some n when n <> List.length bindings ->
            fail "%s: mux %s peer %d reports %d routes, station holds %d" ctx
              name asn n (List.length bindings)
          | Some _ -> ())
        (Monitor.adj_rib_dump mon ~mux:name))
    (Testbed.sites tb)

let scenario_propagation seed =
  Metrics.reset ();
  let ctx = Printf.sprintf "seed %d propagation" seed in
  let tb = Testbed.build ~params:(params seed) () in
  let engine = Testbed.engine tb in
  let mon = Monitor.create () in
  attach mon tb;
  arm_benign mon tb;
  let fed = feed_all tb in
  if fed = 0 then fail "%s: no routes fed" ctx;
  Engine.run_for engine 1.0;
  check_digests ~ctx mon tb;
  (* Crash one mux: Peer Down per peer + Termination must empty the
     mirror exactly like the live table, and the session gauge must
     agree with the station's notion of session state. *)
  let site = List.hd (Testbed.sites tb) in
  let srv = Testbed.site_server site in
  let name = Server.name srv in
  let peer = List.hd (Testbed.peers_at tb name) in
  (match session_gauge srv peer with
  | Some 5.0 -> ()
  | v -> fail "%s: gauge says %s before crash" ctx
           (match v with Some f -> string_of_float f | None -> "absent"));
  if not (Monitor.peer_up mon ~mux:name ~peer) then
    fail "%s: station missed Peer Up for %s" ctx (Asn.to_string peer);
  Server.crash srv;
  (match session_gauge srv peer with
  | Some 0.0 -> ()
  | _ -> fail "%s: gauge did not drop to 0 on crash" ctx);
  if Monitor.peer_up mon ~mux:name ~peer then
    fail "%s: station missed Peer Down for %s" ctx (Asn.to_string peer);
  if Monitor.mux_up mon ~mux:name then
    fail "%s: station missed the Termination" ctx;
  Engine.run_for engine 2.0;
  Server.restart srv;
  if not (Monitor.mux_up mon ~mux:name && Monitor.peer_up mon ~mux:name ~peer)
  then fail "%s: station missed the re-Initiation / Peer Up" ctx;
  (match session_gauge srv peer with
  | Some 5.0 -> ()
  | _ -> fail "%s: gauge did not return to 5 on restart" ctx);
  ignore (Testbed.feed_peer_routes tb ~site:name);
  Engine.run_for engine 1.0;
  check_digests ~ctx mon tb;
  (* Stats Reports against the reconstruction. *)
  List.iter
    (fun site -> Server.emit_bmp_stats (Testbed.site_server site))
    (Testbed.sites tb);
  check_stats_reports ~ctx mon tb;
  check_clean ~ctx mon

(* ------------------------------------------------------------------ *)
(* Scenario 2: scheduler admit/evict churn under a live feed *)

let scenario_scheduler seed =
  Metrics.reset ();
  let ctx = Printf.sprintf "seed %d scheduler" seed in
  let tb = Testbed.build ~params:(params seed) () in
  let engine = Testbed.engine tb in
  let mon = Monitor.create () in
  attach mon tb;
  arm_benign mon tb;
  ignore (feed_all tb);
  let sched =
    Scheduler.create ~round_interval:0.5
      ~extra_supply:[ Prefix.of_string_exn "184.164.192.0/19" ]
      tb
  in
  for i = 0 to 5 do
    ignore
      (Scheduler.admit sched
         (Scheduler.proposal ~n_prefixes:1 ~sites:[]
            (Printf.sprintf "tenant-%02d" i)))
  done;
  List.iter
    (fun tenant ->
      List.iter
        (fun p ->
          match Scheduler.request_announce sched ~tenant p with
          | Ok () -> ()
          | Error e -> fail "%s: %s announce refused: %s" ctx tenant e)
        (Scheduler.leased_prefixes sched tenant))
    (Scheduler.tenants sched);
  ignore (Scheduler.pump sched);
  Engine.run_for engine 1.0;
  (* Feeds keep flowing while a tenant is evicted mid-run. *)
  ignore (feed_all tb);
  (match Scheduler.tenants sched with
  | victim :: _ ->
    ignore (Scheduler.evict sched ~tenant:victim ~reason:"bmp-diff churn")
  | [] -> fail "%s: no tenants admitted" ctx);
  ignore (Scheduler.pump sched);
  Engine.run_for engine 1.0;
  ignore (feed_all tb);
  Engine.run_for engine 1.0;
  check_digests ~ctx mon tb;
  check_clean ~ctx mon

(* ------------------------------------------------------------------ *)
(* Scenario 3: chaos drills with the station attached inside *)

let scenario_drill seed drill =
  Metrics.reset ();
  let ctx = Printf.sprintf "seed %d drill %s" seed drill in
  let captured = ref None in
  let mon = Monitor.create () in
  let outcome, _ =
    Campaign.run_drill
      ~on_world:(fun tb ->
        attach mon tb;
        arm_benign mon tb;
        captured := Some tb)
      ~seed drill
  in
  if not outcome.Campaign.reconverged then
    fail "%s: drill did not reconverge" ctx;
  match !captured with
  | None -> fail "%s: on_world never ran" ctx
  | Some tb ->
    check_digests ~ctx mon tb;
    check_clean ~ctx mon

(* ------------------------------------------------------------------ *)
(* Scenario 4: every injected anomaly raises exactly once *)

let count_kind mon kind =
  List.length
    (List.filter (fun a -> a.Monitor.a_kind = kind) (Monitor.alerts mon))

let scenario_detectors seed =
  Metrics.reset ();
  let ctx = Printf.sprintf "seed %d detectors" seed in
  let tb = Testbed.build ~params:(params seed) () in
  let engine = Testbed.engine tb in
  let mon = Monitor.create () in
  attach mon tb;
  ignore (feed_all tb);
  let site = List.hd (Testbed.sites tb) in
  let name = Testbed.site_name site in
  let srv = Testbed.site_server site in
  let p1, p2 =
    match Testbed.peers_at tb name with
    | a :: b :: _ -> (a, b)
    | _ -> (fail "%s: fewer than two peers" ctx : Asn.t * Asn.t)
  in
  let moas = Prefix.of_string_exn "203.0.113.0/24" in
  let leak = Prefix.of_string_exn "198.51.100.0/24" in
  let flap = Prefix.of_string_exn "192.0.2.0/24" in
  let dip = Prefix.of_string_exn "100.66.0.0/24" in
  Monitor.watch_moas mon moas ~origin:(Asn.of_int 65010);
  Monitor.allow_export mon ~mux:name ~peer:p1 (fun p ->
      Prefix.compare p leak <> 0);
  Monitor.watch_flaps mon flap;
  Monitor.watch_reach mon dip;
  (* MOAS: injected twice, alerted once (dedup). *)
  Server.learn_route srv ~peer:p1 ~path:[ p1; Asn.of_int 65010 ] moas;
  Server.learn_route srv ~peer:p2 ~path:[ p2; Asn.of_int 65666 ] moas;
  Server.learn_route srv ~peer:p2 ~path:[ p2; Asn.of_int 65666 ] moas;
  (* Leak: outside p1's registered cone, twice. *)
  Server.learn_route srv ~peer:p1 ~path:[ p1; Asn.of_int 65020 ] leak;
  Server.learn_route srv ~peer:p1 ~path:[ p1; Asn.of_int 65020 ] leak;
  (* Flap storm: far past the limit, still one alert. *)
  for _ = 1 to 4 do
    Engine.run_for engine 0.25;
    Server.learn_route srv ~peer:p2 ~path:[ p2; Asn.of_int 65030 ] flap;
    Engine.run_for engine 0.25;
    Server.withdraw_learned srv ~peer:p2 flap
  done;
  (* Reach dip: two tables arm the floor, a crash breaches it. *)
  Server.learn_route srv ~peer:p1 ~path:[ p1; Asn.of_int 65040 ] dip;
  Server.learn_route srv ~peer:p2 ~path:[ p2; Asn.of_int 65040 ] dip;
  Engine.run_for engine 0.5;
  Server.crash srv;
  Engine.run_for engine 1.0;
  Server.restart srv;
  ignore (Testbed.feed_peer_routes tb ~site:name);
  Engine.run_for engine 0.5;
  List.iter
    (fun (kind, label) ->
      match count_kind mon kind with
      | 1 -> ()
      | n -> fail "%s: %s raised %d times, want exactly 1" ctx label n)
    [ (Event.Moas, "MOAS");
      (Event.Out_of_cone_leak, "out-of-cone leak");
      (Event.Flap_churn, "flap churn");
      (Event.Reach_dip, "reach dip")
    ];
  check_digests ~ctx mon tb

(* ------------------------------------------------------------------ *)

let () =
  List.iter
    (fun seed ->
      scenario_propagation seed;
      scenario_scheduler seed;
      scenario_detectors seed)
    seeds;
  (* Drills build the campaign's full default world; two drill classes
     per seed as the acceptance gate demands. *)
  List.iter
    (fun seed ->
      scenario_drill seed "compound";
      scenario_drill (seed + 50) "fate_group")
    seeds;
  Printf.printf
    "bmp-diff: %d seeds x (propagation + scheduler churn + detectors) + %d \
     drill runs: reconstruction byte-identical, alerts exact\n"
    n_seeds (2 * n_seeds)
