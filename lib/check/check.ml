module Metrics = Peering_obs.Metrics
module Config = Peering_router.Config
module Relationship = Peering_topo.Relationship

let m_passes =
  Metrics.counter ~help:"Analyzer passes executed" "check.passes_run"

let m_diags =
  Metrics.Family.counter ~help:"Diagnostics emitted by analyzer passes"
    "check.diagnostics"

(* Run every pass in list order and concatenate the diagnostics,
   counting passes and diagnostics by severity. *)
let run passes x =
  List.concat_map
    (fun pass ->
      Metrics.Counter.inc m_passes;
      let ds = pass x in
      List.iter
        (fun (d : Diagnostic.t) ->
          Metrics.Counter.inc
            (Metrics.Family.get m_diags
               [ ("severity", Diagnostic.severity_to_string d.severity) ]))
        ds;
      ds)
    passes

let config_passes =
  Config_checks.
    [ no_bgp; undefined_route_maps; unused_route_maps; undefined_prefix_lists; unused_prefix_lists; shadowed_prefix_rules;
      impossible_bounds; duplicate_networks; neighbors_without_policy;
      degenerate_timers
    ]

let policy_passes =
  Policy_checks.[ unsatisfiable_entries; export_leaks; shadowed_entries ]

let spec_passes =
  [ Experiment_checks.hijacks;
    Experiment_checks.poisonings;
    Experiment_checks.dampening
  ]

(* Topology structure, static leak analysis, stability. *)
let world_passes =
  [ Graph_checks.partition; Graph_checks.provider_cycle; Graph_checks.moas;
    Leak_analysis.edges; Leak_analysis.reach;
    Stability.prefer_non_customer; Stability.wheels
  ]

let stamp file diags =
  match file with
  | None -> diags
  | Some f -> List.map (Diagnostic.with_file f) diags

(* Every route-map of a config, compiled once and vetted as a policy
   whose entries carry their lines. A route-map applied outbound
   towards PEERING's AS exports to the experiment's provider, the mux,
   so a permit-all there is a POLICY-LEAK at that statement's line. A
   route-map that does not compile is left to RTMAP-UNDEF and
   PFXLIST-UNDEF. *)
let route_map_inputs cfg =
  let neighbors =
    match Config.bgp cfg with Some b -> b.Config.neighbors | None -> []
  in
  let towards_peering name =
    List.find_map
      (fun (n : Config.neighbor_config) ->
        if
          n.route_map_out = Some name
          && Peering_net.Asn.equal n.remote_as
               Experiment_checks.default_peering_asn
        then n.route_map_out_line
        else None)
      neighbors
  in
  List.filter_map
    (fun (name, entries) ->
      match Config.compile_route_map cfg name with
      | Error _ -> None
      | Ok policy ->
        let export_line = towards_peering name in
        let relationship =
          Option.map (fun _ -> Relationship.Provider) export_line
        in
        Some
          { (Policy_checks.input ~name ?relationship policy) with
            pol_line = export_line;
            pol_entry_lines =
              List.map
                (fun (e : Config.map_entry) -> (e.Config.rm_seq, e.Config.rm_line))
                entries
          })
    (Config.route_maps cfg)

let per_config cfg =
  run config_passes cfg
  @ List.concat_map (run policy_passes) (route_map_inputs cfg)

let check_configs configs =
  let per =
    List.concat_map (fun (file, cfg) -> stamp file (per_config cfg)) configs
  in
  let cross = run [ Config_checks.sessions ] configs in
  Diagnostic.sort (per @ cross)

let per_spec specs =
  List.concat_map (fun (file, spec) -> stamp file (run spec_passes spec)) specs

let check_specs specs =
  Diagnostic.sort (per_spec specs @ run [ Graph_checks.spec_conflicts ] specs)

let check_world w =
  let topo = run world_passes w in
  let specs = World.specs w in
  let cross = run [ Graph_checks.spec_conflicts ] specs in
  Diagnostic.sort (topo @ per_spec specs @ cross)

let codes =
  [ ("RTR-NOBGP", Diagnostic.Error, "no router bgp block");
    ("RTMAP-UNDEF", Diagnostic.Error, "reference to an undefined route-map");
    ("RTMAP-UNUSED", Diagnostic.Warning, "route-map defined but never used");
    ("RTMAP-SHADOW", Diagnostic.Warning, "unreachable route-map entry");
    ( "PFXLIST-UNDEF",
      Diagnostic.Error,
      "reference to an undefined prefix-list" );
    ( "PFXLIST-UNUSED",
      Diagnostic.Warning,
      "prefix-list defined but never used" );
    ("PFXLIST-SHADOW", Diagnostic.Warning, "unreachable prefix-list rule");
    ( "PFXLIST-BOUNDS",
      Diagnostic.Error,
      "ge/le bounds that can never match" );
    ("NET-DUP", Diagnostic.Warning, "network declared twice");
    ( "NBR-NOPOLICY",
      Diagnostic.Warning,
      "neighbor without route-maps in either direction" );
    ( "TIMER-DEGEN",
      Diagnostic.Error,
      "hold time below the keepalive interval, or zero connect-retry" );
    ( "SESSION-MISMATCH",
      Diagnostic.Error,
      "paired configs disagree on remote-as or addresses" );
    ( "POLICY-UNSAT",
      Diagnostic.Warning,
      "policy entry with unsatisfiable conditions" );
    ( "POLICY-LEAK",
      Diagnostic.Error,
      "permit-all export towards a provider or peer (route leak)" );
    ( "EXP-HIJACK",
      Diagnostic.Error,
      "announcement outside the experiment's allocation" );
    ( "EXP-POISON",
      Diagnostic.Error,
      "public ASN in path suffix without poisoning approval" );
    ( "EXP-DAMPEN",
      Diagnostic.Error,
      "schedule would trip RFC 2439 route-flap dampening" );
    ( "GRAPH-PARTITION",
      Diagnostic.Warning,
      "topology splits into several connected components" );
    ( "GRAPH-RELCYCLE",
      Diagnostic.Error,
      "cycle in the customer-provider relationship digraph" );
    ("GRAPH-MOAS", Diagnostic.Warning, "prefix originated by several ASes");
    ( "LEAK-EDGE",
      Diagnostic.Error,
      "edge may export beyond Gao-Rexford discipline (route leak)" );
    ( "LEAK-REACH",
      Diagnostic.Warning,
      "blast radius of a leak-prone edge (static fixpoint)" );
    ( "STAB-PREF",
      Diagnostic.Warning,
      "non-customer session imported at or above customer local-pref" );
    ( "STAB-WHEEL",
      Diagnostic.Error,
      "dispute wheel: cycle of prefer-non-customer sessions" );
    ( "XEXP-OVERLAP",
      Diagnostic.Error,
      "two experiments' prefixes overlap" );
    ("XEXP-ASN", Diagnostic.Error, "two experiments share an origin ASN");
    ( "XEXP-POISON",
      Diagnostic.Warning,
      "experiment poisons an ASN allocated to another experiment" );
    ("PARSE", Diagnostic.Error, "file failed to parse")
  ]
