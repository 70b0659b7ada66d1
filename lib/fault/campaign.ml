open Peering_net
open Peering_core
module Engine = Peering_sim.Engine
module Router = Peering_router.Router
module Session = Peering_bgp.Session
module Forwarder = Peering_dataplane.Forwarder
module Tunnel = Peering_dataplane.Tunnel
module Packet = Peering_dataplane.Packet
module Fib = Peering_dataplane.Fib
module Mininext = Peering_emu.Mininext
module Propagation = Peering_topo.Propagation
module As_graph = Peering_topo.As_graph
module Metrics = Peering_obs.Metrics
module Span = Peering_obs.Span
module Sink = Peering_obs.Sink
module Json = Peering_obs.Json
module Blast = Peering_obs.Blast
module Stats = Peering_measure.Stats

let recovery_hist cls =
  Metrics.histogram
    ~labels:[ ("class", cls) ] "fault.recovery_s"

(* ------------------------------------------------------------------ *)
(* Blast-radius accounting *)

type reach_dip = {
  dip_prefix : string;
  baseline_reach : int;
  min_reach : int;
  dip_from : float;  (** virtual time reach first dipped below baseline *)
  dip_until : float;  (** virtual time reach last sat below baseline *)
}

type blast = {
  by_target : Blast.entity list;
  by_site : Blast.entity list;
  by_client : Blast.entity list;
  by_prefix : Blast.entity list;
  impacted_sites : string list;
  reach_dips : reach_dip list;
  trace_spans : int;  (** spans in the faults' causal closure *)
}

type outcome = {
  drill : string;
  slo_class : string;
  injected : string list;  (** Plan.describe of everything injected *)
  reconverged : bool;
  recovery_s : float;
  routes_lost : int;
  tenant_reaches : (string * int * int) list;
      (* (tenant, baseline reach, final reach) for drills running
         scheduled experiments; [] elsewhere *)
  blast : blast;
  detail : string;
}

(* ------------------------------------------------------------------ *)
(* SLOs *)

type slo = { slo_class : string; p99_budget_s : float }

(* Budgets per drill class, in virtual seconds. They are deliberately
   tight around observed behaviour (see EXPERIMENTS.md): compound and
   cascade drills are dominated by the longest mux downtime plus wire
   re-establishment; the fate-group drill by the blackhole window; the
   leak storm by the explicit pollution window; the dampening sweep by
   RFC 2439 decay at the largest half-life x suppress combination. The
   wire classes are bounded by the fault window plus the reconnect
   backoff still pending when it ends (5 s doubling, jittered x1.25). *)
let default_slos =
  [ { slo_class = "compound"; p99_budget_s = 90.0 };
    { slo_class = "fate_group"; p99_budget_s = 30.0 };
    { slo_class = "cascade"; p99_budget_s = 120.0 };
    { slo_class = "leak_storm"; p99_budget_s = 30.0 };
    { slo_class = "dampening"; p99_budget_s = 4000.0 };
    { slo_class = "multi_tenant"; p99_budget_s = 90.0 };
    { slo_class = "impair"; p99_budget_s = 120.0 };
    { slo_class = "session_reset"; p99_budget_s = 60.0 };
    { slo_class = "partition"; p99_budget_s = 75.0 }
  ]

(* ------------------------------------------------------------------ *)
(* Dampening parameter sweep *)

type sweep_row = {
  half_life : float;
  suppress_threshold : float;
  reuse_threshold : float;
  flaps_to_suppression : int;
  suppressed_s : float;  (** time the route spent held down *)
  released : bool;
}

(* ------------------------------------------------------------------ *)
(* Campaign world: the default multi-site testbed plus the injectable
   periphery (wire sessions, tunnels, the HE-style emulation) *)

type wire = {
  wr1 : Router.t;
  wr2 : Router.t;
  wire_session : Session.t;
  wire_full : int;  (** table size when converged *)
}

type ann = {
  ann_client : Client.t;
  ann_prefix : Prefix.t;
}

type world = {
  tb : Testbed.t;
  eng : Engine.t;
  inj : Injector.t;
  fwd : Forwarder.t;
  emu : Mininext.t;
  wires : wire list;
  tunnels : (string * Tunnel.t) list;  (* site, tunnel *)
  anns : ann list;
  baseline : (Prefix.t * int) list;  (* baseline reach per prefix *)
}

let university_sites = [ "gatech01"; "usc01"; "ufmg01" ]

let wait_until engine pred ~timeout =
  let deadline = Engine.now engine +. timeout in
  let rec go () =
    if pred () then Some (Engine.now engine)
    else if Engine.now engine >= deadline then None
    else begin
      Engine.run_for engine 0.25;
      go ()
    end
  in
  go ()

let wire_converged w =
  Session.established w.wire_session
  && Router.table_size w.wr1 = w.wire_full
  && Router.table_size w.wr2 = w.wire_full

let emu_converged emu =
  List.for_all
    (fun (_, _, s) -> Session.established s)
    (Mininext.ibgp_sessions emu)

let wire_lost w =
  max 0 (w.wire_full - Router.table_size w.wr1)
  + max 0 (w.wire_full - Router.table_size w.wr2)

(* A live upstream BGP pair whose transport the injector can impair or
   partition, registered as [link:<site>]. Aggressive hold time so
   partitions are detected inside drill windows. *)
let make_wire eng inj i site =
  let mk asn router_id =
    Router.create eng ~asn:(Asn.of_int asn) ~router_id ~hold_time:9
      ~graceful_restart:120 ()
  in
  let a1 = Ipv4.of_octets 192 168 (40 + i) 1 in
  let a2 = Ipv4.of_octets 192 168 (40 + i) 2 in
  let r1 = mk (65100 + (2 * i)) a1 in
  let r2 = mk (65101 + (2 * i)) a2 in
  let n = 4 in
  for j = 0 to n - 1 do
    Router.originate r1 (Prefix.make (Ipv4.of_octets 10 (60 + i) j 0) 24);
    Router.originate r2 (Prefix.make (Ipv4.of_octets 10 (70 + i) j 0) 24)
  done;
  let session = Router.connect eng ~auto_restart:true (r1, a1) (r2, a2) in
  Injector.add_link inj ~name:("link:" ^ site) session;
  { wr1 = r1; wr2 = r2; wire_session = session; wire_full = 2 * n }

let client_node = "cl:probe"
let mux_node site = "mx:" ^ site

let make_world ?(on_world = fun _ -> ()) ~seed () =
  let tb = Testbed.build ~params:{ Testbed.default_params with seed } () in
  on_world tb;
  let eng = Testbed.engine tb in
  let inj = Injector.create eng in
  (* Every mux is a crash target. *)
  List.iter
    (fun s ->
      Injector.add_mux inj
        ~name:("mux:" ^ Testbed.site_name s)
        (Testbed.site_server s))
    (Testbed.sites tb);
  (* One upstream wire session per university site. *)
  let wires = List.mapi (make_wire eng inj) university_sites in
  (* Dataplane: one tunnel from a probe client to each university
     site's mux node — the fate-group drill blackholes them together. *)
  let fwd = Forwarder.create eng in
  Forwarder.add_node fwd client_node;
  let client_addr = Ipv4.of_octets 10 9 9 1 in
  Forwarder.add_address fwd client_node client_addr;
  let tunnels =
    List.mapi
      (fun i site ->
        let node = mux_node site in
        Forwarder.add_node fwd node;
        let addr = Ipv4.of_octets 184 164 (224 + i) 1 in
        Forwarder.add_address fwd node addr;
        let tun = Tunnel.establish fwd eng ~a:client_node ~b:node () in
        Tunnel.route_via tun ~at:client_node (Prefix.make addr 32);
        Forwarder.set_route fwd node (Prefix.make addr 32) Fib.Local;
        Injector.add_tunnel inj ~name:("tun:" ^ site) tun;
        (site, tun))
      university_sites
  in
  (* The Hurricane-Electric-style emulation: a small MinineXt backbone
     whose iBGP mesh is injectable like any other link. *)
  let emu = Mininext.create eng fwd ~name:"he" ~asn:(Asn.of_int 6939) () in
  List.iter (fun p -> ignore (Mininext.add_pop emu p)) [ "fra"; "ams"; "par" ];
  Mininext.link emu "fra" "ams";
  Mininext.link emu "ams" "par";
  Mininext.link emu "fra" "par";
  Mininext.originate_at emu "fra" (Prefix.of_string_exn "10.80.0.0/24");
  Mininext.start emu;
  List.iter
    (fun (a, b, s) ->
      Injector.add_link inj ~name:(Printf.sprintf "link:emu:%s-%s" a b) s)
    (Mininext.ibgp_sessions emu);
  (* Let wire sessions and the emu mesh establish. *)
  ignore
    (wait_until eng
       (fun () -> List.for_all wire_converged wires && emu_converged emu)
       ~timeout:60.0);
  (* Clients and announcements on the testbed proper. *)
  let get_exn = function
    | Ok e -> e
    | Error m -> invalid_arg ("Campaign: experiment rejected: " ^ m)
  in
  let mk_ann id sites =
    let exp = get_exn (Testbed.new_experiment tb ~id ~n_prefixes:1 ()) in
    let prefix = List.hd exp.Experiment.prefixes in
    let client = Client.create ~id ~experiment:exp () in
    Testbed.connect_client tb client ~sites:university_sites;
    List.iter
      (fun (site, r) ->
        match r with
        | Ok () -> ()
        | Error reason ->
          invalid_arg
            (Printf.sprintf "Campaign: baseline announce refused at %s: %s"
               site
               (Safety.reason_to_string reason)))
      (Client.announce client ~servers:sites prefix);
    { ann_client = client; ann_prefix = prefix }
  in
  let anns =
    [ mk_ann "cl:gatech01" [ "gatech01" ];
      mk_ann "cl:usc01" [ "usc01" ];
      mk_ann "cl:anycast" [ "gatech01"; "usc01"; "ufmg01" ]
    ]
  in
  let baseline =
    List.map
      (fun a -> (a.ann_prefix, Testbed.reach_count tb a.ann_prefix))
      anns
  in
  { tb; eng; inj; fwd; emu; wires; tunnels; anns; baseline }

(* ------------------------------------------------------------------ *)
(* Recovery predicates and reach-dip tracking *)

let world_recovered w =
  List.for_all (fun s -> Server.is_up (Testbed.site_server s))
    (Testbed.sites w.tb)
  && List.for_all wire_converged w.wires
  && emu_converged w.emu
  && List.for_all (fun (_, tun) -> not (Tunnel.blackholed tun)) w.tunnels
  && List.for_all
       (fun (prefix, reach) -> Testbed.reach_count w.tb prefix = reach)
       w.baseline

type dip_state = {
  mutable seen_min : int;
  mutable from_t : float option;
  mutable until_t : float;
}

let make_dip_tracker w =
  let states =
    List.map
      (fun (prefix, base) ->
        (prefix, base, { seen_min = base; from_t = None; until_t = 0.0 }))
      w.baseline
  in
  let sample () =
    List.iter
      (fun (prefix, base, st) ->
        let r = Testbed.reach_count w.tb prefix in
        if r < st.seen_min then st.seen_min <- r;
        if r < base then begin
          if st.from_t = None then st.from_t <- Some (Engine.now w.eng);
          st.until_t <- Engine.now w.eng
        end)
      states
  in
  let dips () =
    List.filter_map
      (fun (prefix, base, st) ->
        match st.from_t with
        | None -> None
        | Some from_t ->
          Some
            { dip_prefix = Prefix.to_string prefix;
              baseline_reach = base;
              min_reach = st.seen_min;
              dip_from = from_t;
              dip_until = st.until_t
            })
      states
  in
  (sample, dips)

let routes_lost w =
  List.fold_left
    (fun acc (prefix, base) ->
      acc + max 0 (base - Testbed.reach_count w.tb prefix))
    0 w.baseline

(* Map an injector target name to the site it hurts, for targets whose
   spans carry no site attribute of their own. *)
let site_of_target name =
  match String.split_on_char ':' name with
  | [ ("mux" | "link" | "tun"); site ] -> Some site
  | "link" :: "emu" :: _ -> Some "emu"
  | _ -> None

(* Atomic targets a plan touches, fate-group members included — the
   spans only name the group, but the members' sites are impacted. *)
let plan_targets plan =
  let rec go acc = function
    | Plan.Fate_group { faults; _ } -> List.fold_left go acc faults
    | f -> Plan.target f :: acc
  in
  List.fold_left
    (fun acc (s : Plan.step) -> go acc s.fault)
    [] plan
  |> List.rev

let collect_blast ?(plan = []) ~dips () =
  let spans = Sink.spans () in
  let roots = Blast.roots spans ~name:"fault.inject" in
  let closure = Blast.in_traces spans roots in
  let by_target = Blast.rollup closure ~key:"target" in
  let by_site = Blast.rollup closure ~key:"site" in
  let by_client = Blast.rollup closure ~key:"client" in
  let by_prefix = Blast.rollup closure ~key:"prefix" in
  let impacted =
    List.filter_map
      (fun (e : Blast.entity) -> site_of_target e.Blast.value)
      by_target
    @ List.filter_map site_of_target (plan_targets plan)
    @ List.map (fun (e : Blast.entity) -> e.Blast.value) by_site
  in
  { by_target;
    by_site;
    by_client;
    by_prefix;
    impacted_sites = List.sort_uniq String.compare impacted;
    reach_dips = dips;
    trace_spans = List.length closure
  }

(* What the harness needs to drive one drill, whatever world it runs
   on: the engine and injector the plan is armed on, the drill's own
   notion of "recovered" and of routes lost, and a sampler run every
   slice whose reach dips feed the blast radius. *)
type rig = {
  eng : Engine.t;
  inj : Injector.t;
  recovered : unit -> bool;
  lost : unit -> int;
  sample : unit -> unit;
  dips : unit -> reach_dip list;
}

let world_rig w =
  let sample, dips = make_dip_tracker w in
  { eng = w.eng;
    inj = w.inj;
    recovered = (fun () -> world_recovered w);
    lost = (fun () -> routes_lost w);
    sample;
    dips
  }

(* The one drill runner. Under a fresh recorder, [setup] builds
   the drill's world and rig; then the harness arms [plan], runs
   [body] (drill-specific traffic or faults that are not injector
   targets), and waits until the fault horizon has passed and the rig
   reports recovery. *)
let drill_harness ~drill ~slo_class ~plan ~fault_horizon ?(extra_timeout = 600.)
    ?(body = fun _ -> ()) setup =
  Sink.start ();
  let x, rig = setup () in
  let fault_start = Engine.now rig.eng in
  Injector.arm rig.inj plan;
  body x;
  let settled =
    wait_until rig.eng
      (fun () ->
        rig.sample ();
        Engine.now rig.eng >= fault_start +. fault_horizon && rig.recovered ())
      ~timeout:(fault_horizon +. extra_timeout)
  in
  Sink.stop ();
  let recovery_s =
    match settled with Some at -> at -. fault_start | None -> Float.nan
  in
  let reconverged = settled <> None in
  if reconverged then
    Metrics.Histogram.observe (recovery_hist slo_class) recovery_s;
  let injected =
    List.map (fun (s : Plan.step) -> Plan.describe s.fault) plan
  in
  let outcome =
    { drill;
      slo_class;
      injected;
      reconverged;
      recovery_s;
      routes_lost = rig.lost ();
      tenant_reaches = [];
      blast = collect_blast ~plan ~dips:(rig.dips ()) ();
      detail = ""
    }
  in
  (x, outcome)

(* A drill on a fresh default-testbed world. *)
let world_drill ~drill ~plan ~fault_horizon ?body ?on_world ~seed () =
  drill_harness ~drill ~slo_class:drill ~plan ~fault_horizon ?body (fun () ->
      let w = make_world ?on_world ~seed () in
      (w, world_rig w))

(* ------------------------------------------------------------------ *)
(* Drills *)

(* Compound: a mux restart with a wire partition opening mid-downtime
   and a short emulation partition nested inside that window. *)
let compound_plan =
  Plan.of_steps
    [ { Plan.at = 1.0;
        fault = Plan.Mux_crash { mux = "mux:gatech01"; downtime = 20.0 }
      };
      { Plan.at = 8.0;
        fault = Plan.Partition { link = "link:usc01"; duration = 25.0 }
      };
      { Plan.at = 10.0;
        fault = Plan.Partition { link = "link:emu:fra-ams"; duration = 5.0 }
      }
    ]

let compound_drill ?on_world ~seed () =
  let w, o =
    world_drill ~drill:"compound" ~plan:compound_plan ~fault_horizon:34.0
      ?on_world ~seed ()
  in
  let gatech_reach =
    match w.baseline with (p, _) :: _ -> Testbed.reach_count w.tb p | [] -> 0
  in
  { o with
    detail =
      Printf.sprintf
        "mux restart overlapped 2 partitions; gatech prefix reaches %d ASes \
         again"
        gatech_reach
  }

(* Fate group: every site tunnel blackholes at the same instant (one
   conduit cut), watched by a 2 Hz probe stream per tunnel. *)
let fate_group_drill ?on_world ~seed () =
  let duration = 12.0 in
  let plan =
    Plan.of_steps
      [ { Plan.at = 5.0;
          fault =
            Plan.Fate_group
              { group = "conduit";
                faults =
                  List.map
                    (fun site ->
                      Plan.Tunnel_blackhole
                        { tunnel = "tun:" ^ site; duration })
                    university_sites
              }
        }
      ]
  in
  let sent = ref 0 in
  let delivered = Hashtbl.create 4 in
  let body w =
    List.iter
      (fun site ->
        Hashtbl.replace delivered site 0;
        Forwarder.on_deliver w.fwd (mux_node site) (fun _ ->
            Hashtbl.replace delivered site
              (1 + Hashtbl.find delivered site)))
      university_sites;
    let client_addr = Ipv4.of_octets 10 9 9 1 in
    for i = 0 to 59 do
      Engine.schedule w.eng
        ~delay:(0.5 *. float_of_int i)
        (fun () ->
          List.iteri
            (fun j _site ->
              incr sent;
              Forwarder.inject w.fwd ~at:client_node
                (Packet.make ~src:client_addr
                   ~dst:(Ipv4.of_octets 184 164 (224 + j) 1)
                   ()))
            university_sites)
    done
  in
  let _w, o =
    world_drill ~drill:"fate_group" ~plan ~fault_horizon:(5.0 +. duration)
      ~body ?on_world ~seed ()
  in
  let total_delivered =
    Hashtbl.fold (fun _ n acc -> acc + n) delivered 0
  in
  let lost = !sent - total_delivered in
  (* Each tunnel loses ~2 Hz x 12 s of probes; everything outside the
     shared window must land. *)
  let expected_max = 3 * 26 in
  let plausible = total_delivered > 0 && lost > 0 && lost <= expected_max in
  { o with
    reconverged = o.reconverged && plausible;
    detail =
      Printf.sprintf "%d/%d probes blackholed across %d tunnels in one group"
        lost !sent (List.length university_sites)
  }

(* Cascade: two mux crashes overlap; mid-partition the gatech client
   fails over by re-exporting its prefix at a surviving site, then
   withdraws the failover after recovery so the baseline is restored
   exactly. *)
let cascade_drill ?on_world ~seed () =
  let plan =
    Plan.of_steps
      [ { Plan.at = 1.0;
          fault = Plan.Mux_crash { mux = "mux:gatech01"; downtime = 15.0 }
        };
        { Plan.at = 6.0;
          fault = Plan.Mux_crash { mux = "mux:usc01"; downtime = 15.0 }
        }
      ]
  in
  let refused_down = ref false in
  let failover_ok = ref false in
  let body w =
    let a = List.hd w.anns in
    Engine.schedule w.eng ~delay:8.0 (fun () ->
        (* The crashed mux refuses; the surviving site accepts. *)
        (match
           Client.announce a.ann_client ~servers:[ "gatech01" ] a.ann_prefix
         with
        | [ (_, Error Safety.Mux_down) ] -> refused_down := true
        | _ -> ());
        match
          Client.announce a.ann_client ~servers:[ "ufmg01" ] a.ann_prefix
        with
        | [ (_, Ok ()) ] -> failover_ok := true
        | _ -> ());
    (* Once both muxes are back, retract the failover announcement so
       recovery means "exactly the pre-fault world". *)
    Engine.schedule w.eng ~delay:25.0 (fun () ->
        Client.withdraw a.ann_client ~servers:[ "ufmg01" ] a.ann_prefix)
  in
  let _w, o =
    world_drill ~drill:"cascade" ~plan ~fault_horizon:26.0 ~body ?on_world
      ~seed ()
  in
  { o with
    reconverged = o.reconverged && !refused_down && !failover_ok;
    detail =
      Printf.sprintf
        "refused at crashed mux: %b; failover export at ufmg01: %b"
        !refused_down !failover_ok
  }

let polluted_routes w =
  List.fold_left
    (fun acc (prefix, _) ->
      match Testbed.result_for w.tb prefix with
      | Some r ->
        acc + List.length (Propagation.polluted (Testbed.graph w.tb) r)
      | None -> acc)
    0 w.baseline

(* Leak storm: mid-run, a handful of edges start leaking (RFC 7908),
   every table is repaired with the leak hook, and the pollution set is
   the measured blast radius; clearing the leaks must repair back to
   the valley-free baseline exactly. *)
let leak_storm_drill ?on_world ~seed () =
  let polluted = ref 0 and residual = ref 0 and n_edges = ref 0 in
  let body (w, sample) =
    let g = Testbed.graph w.tb in
    (* Deterministic leakers: the first ASes (ascending) with at least
       two providers each leak to their second provider. *)
    let leak_edges =
      let rec pick acc n = function
        | [] -> List.rev acc
        | _ when n = 0 -> List.rev acc
        | asn :: rest -> (
          match As_graph.providers g asn with
          | _ :: second :: _ -> pick ((asn, second) :: acc) (n - 1) rest
          | _ -> pick acc n rest)
      in
      pick [] 3 (As_graph.ases g)
    in
    n_edges := List.length leak_edges;
    (* The storm is not an injector fault (it rewires propagation, not
       a registered target), so the drill roots the span itself,
       exactly like Injector.apply does. *)
    Span.with_span
      ~time:(fun () -> Engine.now w.eng)
      ~attrs:
        [ ("target", "leak-edges");
          ("fault", Printf.sprintf "route-leak storm on %d edges" !n_edges)
        ]
      "fault.inject"
      (fun () ->
        Testbed.set_leak_edges w.tb leak_edges;
        polluted := polluted_routes w);
    sample ();
    Engine.run_for w.eng 10.0;
    Testbed.set_leak_edges w.tb [];
    residual := polluted_routes w
  in
  let _, o =
    drill_harness ~drill:"leak_storm" ~slo_class:"leak_storm" ~plan:[]
      ~fault_horizon:0.0 ~extra_timeout:60.0 ~body (fun () ->
        let w = make_world ?on_world ~seed () in
        let rig = world_rig w in
        ( (w, rig.sample),
          { rig with recovered = (fun () -> !residual = 0 && rig.recovered ()) }
        ))
  in
  { o with
    injected = [ Printf.sprintf "route-leak storm on %d edges" !n_edges ];
    detail =
      Printf.sprintf
        "%d polluted AS-routes at storm peak; %d after clearing" !polluted
        !residual
  }

(* Multi-tenant compound: the compound fault plan fired under 20
   concurrent scheduler-admitted experiments, each holding a leased
   /24 announced from every site. Recovery requires the usual world
   predicate AND every tenant's per-prefix reach back at its own
   baseline — the per-tenant zero-routes-lost SLO. *)
let multi_tenant_drill ?on_world ~seed () =
  let setup () =
    let w = make_world ?on_world ~seed () in
    let n_tenants = 20 in
    let sched = Scheduler.create ~round_interval:0.5 w.tb in
    for i = 0 to n_tenants - 1 do
      let tenant = Printf.sprintf "exp-%02d" i in
      match Scheduler.admit sched (Scheduler.proposal tenant) with
      | Scheduler.Admitted _ -> ()
      | Scheduler.Rejected issues ->
        invalid_arg
          (Printf.sprintf "Campaign: tenant %s rejected: %s" tenant
             (String.concat "; "
                (List.map (fun i -> i.Scheduler.issue_message) issues)))
    done;
    List.iter
      (fun tenant ->
        List.iter
          (fun p ->
            match Scheduler.request_announce sched ~tenant p with
            | Ok () -> ()
            | Error e -> invalid_arg ("Campaign: " ^ e))
          (Scheduler.leased_prefixes sched tenant))
      (Scheduler.tenants sched);
    ignore (Scheduler.pump sched);
    let leased =
      List.map
        (fun tenant ->
          (tenant, List.hd (Scheduler.leased_prefixes sched tenant)))
        (Scheduler.tenants sched)
    in
    let baseline = List.map (fun (_, p) -> Testbed.reach_count w.tb p) leased in
    let final () =
      List.map2
        (fun (tenant, p) base -> (tenant, base, Testbed.reach_count w.tb p))
        leased baseline
    in
    let tenant_lost () =
      List.fold_left
        (fun acc (_, base, now) -> acc + max 0 (base - now))
        0 (final ())
    in
    let rig = world_rig w in
    ( final,
      { rig with
        recovered =
          (fun () ->
            rig.recovered ()
            && List.for_all (fun (_, base, now) -> now = base) (final ()));
        lost = (fun () -> rig.lost () + tenant_lost ())
      } )
  in
  let final, o =
    drill_harness ~drill:"multi_tenant" ~slo_class:"multi_tenant"
      ~plan:compound_plan ~fault_horizon:34.0 setup
  in
  let tenant_reaches = final () in
  { o with
    tenant_reaches;
    detail =
      Printf.sprintf
        "%d concurrent scheduled experiments; per-tenant reach restored: %b"
        (List.length tenant_reaches)
        (List.for_all (fun (_, base, now) -> now = base) tenant_reaches)
  }

(* Wire drills: one fault class against a standalone upstream wire —
   the pair [make_world] builds per university site — on its own
   engine, so a drill costs milliseconds, not a testbed build. *)
let wire_link = "link:wire"

let wire_drills =
  let impair profile duration =
    ( { Plan.at = 0.5;
        fault = Plan.Impair { link = wire_link; profile; duration }
      },
      0.5 +. duration )
  in
  [ ("loss", impair (Plan.lossy ~loss:0.30 ()) 30.0);
    ("duplicate", impair (Plan.lossy ~duplicate:0.50 ()) 20.0);
    ("corrupt", impair (Plan.lossy ~corrupt:0.05 ()) 20.0);
    ( "reorder",
      impair (Plan.lossy ~reorder:0.50 ~reorder_max_delay:0.4 ()) 20.0 );
    ( "reset",
      ({ Plan.at = 0.0; fault = Plan.Session_reset { link = wire_link } }, 0.5)
    );
    ( "partition",
      ( { Plan.at = 0.0;
          fault = Plan.Partition { link = wire_link; duration = 25.0 }
        },
        25.0 ) )
  ]

let wire_drill ~seed drill (step, fault_horizon) =
  let (w, low_water), o =
    drill_harness ~drill
      ~slo_class:(Plan.fault_class step.Plan.fault)
      ~plan:[ step ] ~fault_horizon
      (fun () ->
        let eng = Engine.create ~seed () in
        let inj = Injector.create eng in
        let w = make_wire eng inj 0 "wire" in
        ignore (wait_until eng (fun () -> wire_converged w) ~timeout:60.0);
        let low_water = ref w.wire_full in
        ( (w, low_water),
          { eng;
            inj;
            recovered = (fun () -> wire_converged w);
            lost = (fun () -> wire_lost w);
            sample =
              (fun () ->
                low_water :=
                  min !low_water
                    (min (Router.table_size w.wr1) (Router.table_size w.wr2)));
            dips = (fun () -> [])
          } ))
  in
  { o with
    detail =
      Printf.sprintf "session established %d times; %s"
        (Peering_bgp.Fsm.established_count
           (Session.a w.wire_session))
        (if !low_water = w.wire_full then
           "routes retained throughout (RFC 4724)"
         else Printf.sprintf "table dipped to %d of %d" !low_water w.wire_full)
  }

(* Dampening sweep: the same seeded flap workload against a grid of
   RFC 2439 parameters, reading the bgp.dampening.* instruments. *)
let sweep_grid =
  [ (300.0, 2000.0, 750.0);
    (300.0, 3000.0, 1500.0);
    (900.0, 2000.0, 750.0);
    (900.0, 3000.0, 1500.0)
  ]

let sweep_combo ~seed (half_life, suppress_threshold, reuse_threshold) =
  let eng = Engine.create ~seed () in
  let params =
    { Peering_bgp.Dampening.half_life; suppress_threshold; reuse_threshold }
  in
  let safety =
    Safety.create ~dampening:params ~peering_asn:(Asn.of_int 47065)
      ~owns:(Prefix.subsumes (Prefix.of_string_exn "184.164.224.0/19"))
      ()
  in
  let exp =
    Experiment.make ~id:"campaign-sweep" ~owner:"campaign" ()
  in
  let pfx = Prefix.of_string_exn "184.164.230.0/24" in
  exp.Experiment.prefixes <- [ pfx ];
  exp.Experiment.status <- Experiment.Active;
  let announce () =
    Safety.check_announce safety ~now:(Engine.now eng)
      ~client:"campaign-sweep" ~experiment:exp ~prefix:pfx ~path_suffix:[]
  in
  let withdraw () =
    Safety.note_withdraw safety ~now:(Engine.now eng) ~client:"campaign-sweep"
      ~prefix:pfx
  in
  let suppressed_hist =
    Metrics.histogram "bgp.dampening.suppressed_s"
  in
  let samples0 = List.length (Metrics.Histogram.samples suppressed_hist) in
  (match announce () with Ok () -> () | Error _ -> ());
  let flaps = ref 0 in
  let rec flap_until_suppressed () =
    if !flaps >= 10 then None
    else begin
      withdraw ();
      incr flaps;
      Engine.run_for eng 1.0;
      match announce () with
      | Error (Safety.Dampened until) -> Some until
      | Ok () | Error _ -> flap_until_suppressed ()
    end
  in
  match flap_until_suppressed () with
  | None ->
    { half_life;
      suppress_threshold;
      reuse_threshold;
      flaps_to_suppression = !flaps;
      suppressed_s = Float.nan;
      released = false
    }
  | Some until ->
    Engine.run_for eng (until -. Engine.now eng +. 1.0);
    let released = match announce () with Ok () -> true | Error _ -> false in
    let suppressed_s =
      (* The release just recorded lands at the tail of the shared
         histogram; take everything new since this combo started. *)
      match
        List.filteri
          (fun i _ -> i >= samples0)
          (Metrics.Histogram.samples suppressed_hist)
      with
      | [] -> Float.nan
      | samples -> List.fold_left Float.max neg_infinity samples
    in
    { half_life;
      suppress_threshold;
      reuse_threshold;
      flaps_to_suppression = !flaps;
      suppressed_s;
      released
    }

let dampening_drill ~seed =
  let rows = List.map (sweep_combo ~seed) sweep_grid in
  let all_released = List.for_all (fun r -> r.released) rows in
  let worst =
    List.fold_left
      (fun acc r ->
        if Float.is_nan r.suppressed_s then acc else Float.max acc r.suppressed_s)
      0.0 rows
  in
  if all_released then
    Metrics.Histogram.observe (recovery_hist "dampening") worst;
  ( { drill = "dampening";
      slo_class = "dampening";
      injected =
        List.map
          (fun (hl, s, r) ->
            Printf.sprintf
              "flap workload vs dampening hl=%.0fs suppress=%.0f reuse=%.0f"
              hl s r)
          sweep_grid;
      reconverged = all_released;
      recovery_s = (if all_released then worst else Float.nan);
      routes_lost = 0;
      tenant_reaches = [];
      blast =
        { by_target = [];
          by_site = [];
          by_client = [];
          by_prefix = [];
          impacted_sites = [];
          reach_dips = [];
          trace_spans = 0
        };
      detail =
        Printf.sprintf "%d parameter combinations, all released: %b"
          (List.length rows) all_released
    },
    rows )

(* ------------------------------------------------------------------ *)
(* Driver *)

let drills =
  [ "compound"; "fate_group"; "cascade"; "leak_storm"; "dampening";
    "multi_tenant" ]
  @ List.map fst wire_drills

let drill_index name =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Campaign: unknown drill %S" name)
    | d :: _ when d = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 drills

type report = {
  seed : int;
  outcomes : outcome list;
  slos : Stats.slo list;
  sweep : sweep_row list;
  zero_routes_lost : bool;
  passed : bool;
}

let run_drill ?on_world ~seed name =
  match name with
  | "compound" -> (compound_drill ?on_world ~seed (), [])
  | "fate_group" -> (fate_group_drill ?on_world ~seed (), [])
  | "cascade" -> (cascade_drill ?on_world ~seed (), [])
  | "leak_storm" -> (leak_storm_drill ?on_world ~seed (), [])
  | "dampening" -> dampening_drill ~seed
  | "multi_tenant" -> (multi_tenant_drill ?on_world ~seed (), [])
  | s -> (
    match List.assoc_opt s wire_drills with
    | Some d -> (wire_drill ~seed s d, [])
    | None -> invalid_arg (Printf.sprintf "Campaign: unknown drill %S" s))

(* The budget of every class some outcome belongs to: a drill that
   ran but never recovered left no sample, and misses its budget. *)
let judge_slos slos outcomes =
  List.filter_map
    (fun { slo_class; p99_budget_s } ->
      if List.exists (fun (o : outcome) -> o.slo_class = slo_class) outcomes
      then
        let h = recovery_hist slo_class in
        Some
          (Stats.slo ~name:slo_class ~budget_s:p99_budget_s
             ~dropped:(Metrics.Histogram.dropped h)
             (Metrics.Histogram.samples h))
      else None)
    slos

let run ?(seed = 42) ?(drills = drills) () =
  (* Drill seeds derive from the position in the canonical drill list,
     so a single-drill run replays the very same world as the full
     campaign. *)
  let results =
    List.map
      (fun name -> run_drill ~seed:(seed + (101 * drill_index name)) name)
      drills
  in
  let outcomes = List.map fst results in
  let sweep = List.concat_map snd results in
  let slos = judge_slos default_slos outcomes in
  let zero_routes_lost =
    List.for_all (fun o -> o.routes_lost = 0) outcomes
  in
  let passed =
    zero_routes_lost
    && List.for_all (fun o -> o.reconverged) outcomes
    && List.for_all (fun (v : Stats.slo) -> v.met) slos
  in
  { seed; outcomes; slos; sweep; zero_routes_lost; passed }

(* ------------------------------------------------------------------ *)
(* Reports *)

let entity_json (e : Blast.entity) =
  Json.Obj
    [ ("value", Json.String e.Blast.value);
      ("first", Json.Float e.Blast.first);
      ("last", Json.Float e.Blast.last);
      ("spans", Json.Int e.Blast.spans)
    ]

let dip_json d =
  Json.Obj
    [ ("prefix", Json.String d.dip_prefix);
      ("baseline_reach", Json.Int d.baseline_reach);
      ("min_reach", Json.Int d.min_reach);
      ("from", Json.Float d.dip_from);
      ("until", Json.Float d.dip_until)
    ]

let blast_json b =
  Json.Obj
    [ ("targets", Json.List (List.map entity_json b.by_target));
      ("sites", Json.List (List.map entity_json b.by_site));
      ("clients", Json.List (List.map entity_json b.by_client));
      ("prefixes", Json.List (List.map entity_json b.by_prefix));
      ( "impacted_sites",
        Json.List (List.map (fun s -> Json.String s) b.impacted_sites) );
      ("reach_dips", Json.List (List.map dip_json b.reach_dips));
      ("trace_spans", Json.Int b.trace_spans)
    ]

let outcome_json o =
  Json.Obj
    [ ("drill", Json.String o.drill);
      ("class", Json.String o.slo_class);
      ( "injected",
        Json.List (List.map (fun s -> Json.String s) o.injected) );
      ("reconverged", Json.Bool o.reconverged);
      ("recovery_s", Json.Float o.recovery_s);
      ("routes_lost", Json.Int o.routes_lost);
      ( "tenants",
        Json.List
          (List.map
             (fun (tenant, base, final) ->
               Json.Obj
                 [ ("tenant", Json.String tenant);
                   ("baseline_reach", Json.Int base);
                   ("final_reach", Json.Int final)
                 ])
             o.tenant_reaches) );
      ("blast", blast_json o.blast);
      ("detail", Json.String o.detail)
    ]

let sweep_json r =
  Json.Obj
    [ ("half_life_s", Json.Float r.half_life);
      ("suppress_threshold", Json.Float r.suppress_threshold);
      ("reuse_threshold", Json.Float r.reuse_threshold);
      ("flaps_to_suppression", Json.Int r.flaps_to_suppression);
      ("suppressed_s", Json.Float r.suppressed_s);
      ("released", Json.Bool r.released)
    ]

let to_json report =
  Json.Obj
    [ ("schema", Json.String "peering-chaos/3");
      ("seed", Json.Int report.seed);
      ("drills", Json.List (List.map outcome_json report.outcomes));
      ("slos", Json.List (List.map Stats.slo_json report.slos));
      ("dampening_sweep", Json.List (List.map sweep_json report.sweep));
      ("zero_routes_lost", Json.Bool report.zero_routes_lost);
      ("passed", Json.Bool report.passed);
      ("metrics", Peering_measure.Obs_report.to_json ())
    ]
