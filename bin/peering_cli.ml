(* The `peering` command-line tool: poke at the testbed from a shell.

     dune exec bin/peering_cli.exe -- <command> [options]

   Commands:
     world      generate a synthetic Internet and print its shape
     amsix      build the AMS-IX fabric and print the membership census
     table1     print the paper's testbed-capability matrix
     demo       run a one-shot announce/withdraw experiment
     emulate    emulate a Topology Zoo backbone and converge it
     config     parse a Quagga-style configuration file and report
     check      statically analyze configs and experiment specs
     verify     semantically verify a .world topology and specs against it
     portal     walk the account/vetting/provisioning pipeline end to end
     stats      run an instrumented scenario and dump the metrics
     trace      render the seeded scenario's causal span tree
     chaos      run the fault drills and judge them by their SLOs
     sched      run the multi-tenant experiment scheduler
     monitor    stream BMP from every mux into the monitoring station
     mrt        dump, inspect and replay MRT (RFC 6396) files *)

open Cmdliner
open Peering_net
module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph
module Customer_cone = Peering_topo.Customer_cone
module Topology_zoo = Peering_topo.Topology_zoo
module Fabric = Peering_ixp.Fabric
module Amsix = Peering_ixp.Amsix
module Peering_policy = Peering_ixp.Peering_policy
module Rng = Peering_sim.Rng
module Engine = Peering_sim.Engine
module Mininext = Peering_emu.Mininext
module Forwarder = Peering_dataplane.Forwarder
module Stats = Peering_measure.Stats
open Peering_core

let seed_arg =
  let doc = "Deterministic seed for world generation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let json_flag ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let print_slos slos =
  Printf.printf "\n%s\n" Stats.slo_header;
  List.iter (fun v -> print_endline (Stats.slo_row v)) slos

(* The default testbed, built from the [--seed] value. *)
let seeded_testbed seed =
  Testbed.build ~params:{ Testbed.default_params with Testbed.seed } ()

(* An integer option that must be at least [min]: anything else is a
   usage error (cmdliner's exit 124), not a crash or a degenerate
   artifact. *)
let count ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Format.pp_print_int)

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Open an output file before any work is done, so a bad path fails
   fast with exit 2 rather than an uncaught exception after the run.
   [Sys_error] messages already read "<path>: <reason>". *)
let open_out_or_exit path =
  try open_out_bin path
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

let scale_arg =
  let doc =
    "World scale: 'tiny' (~70 ASes), 'small' (~3.4K ASes) or 'paper' \
     (~46K ASes)."
  in
  let scales = [ ("tiny", `Tiny); ("small", `Small); ("paper", `Paper) ] in
  Arg.(value & opt (enum scales) `Small & info [ "scale" ] ~docv:"SCALE" ~doc)

let params_of ~seed ~scale =
  match scale with
  | `Paper -> { Gen.paper_scale_params with Gen.seed }
  | `Small -> { Gen.default_params with Gen.seed }
  | `Tiny ->
    { Gen.seed;
      Gen.n_tier1 = 4;
      Gen.n_large_transit = 6;
      Gen.n_small_transit = 12;
      Gen.n_stub = 40;
      Gen.n_content = 6;
      Gen.target_prefixes = 150
    }

(* ------------------------------------------------------------------ *)

let world_cmd =
  let run seed scale =
    let w = Gen.generate (params_of ~seed ~scale) in
    let g = w.Gen.graph in
    Printf.printf "ASes:       %d\n" (As_graph.n_ases g);
    Printf.printf "  tier-1:   %d\n" (List.length w.Gen.tier1);
    Printf.printf "  large:    %d\n" (List.length w.Gen.large_transit);
    Printf.printf "  small:    %d\n" (List.length w.Gen.small_transit);
    Printf.printf "  stubs:    %d\n" (List.length w.Gen.stubs);
    Printf.printf "  content:  %d\n" (List.length w.Gen.content);
    Printf.printf "edges:      %d\n" (As_graph.n_edges g);
    Printf.printf "prefixes:   %d\n" (As_graph.n_prefixes g);
    Printf.printf "top-10 by customer cone:\n";
    List.iteri
      (fun i (asn, size) ->
        if i < 10 then
          let n = As_graph.node_exn g asn in
          Printf.printf "  %2d. %-10s %-14s cone=%d\n" (i + 1)
            (Asn.to_string asn)
            (As_graph.kind_to_string n.As_graph.kind)
            size)
      (Customer_cone.rank_all g)
  in
  Cmd.v (Cmd.info "world" ~doc:"Generate a synthetic Internet and describe it")
    Term.(const run $ seed_arg $ scale_arg)

let amsix_cmd =
  let run seed scale =
    let w = Gen.generate (params_of ~seed ~scale) in
    let fabric = Amsix.build ~rng:(Rng.create seed) w in
    Printf.printf "AMS-IX: %d members, %d on route servers\n"
      (Fabric.n_members fabric)
      (List.length (Fabric.route_server_users fabric));
    List.iter
      (fun (policy, n) ->
        Printf.printf "  %-14s %d\n" (Peering_policy.to_string policy) n)
      (Fabric.policy_census fabric);
    let countries = Amsix.member_countries fabric w in
    Printf.printf "member countries: %d\n" (Country.Set.cardinal countries)
  in
  Cmd.v (Cmd.info "amsix" ~doc:"Build the calibrated AMS-IX fabric")
    Term.(const run $ seed_arg $ scale_arg)

let table1_cmd =
  let run () =
    print_string (Capability.render ());
    Printf.printf "\nPEERING meets all goals: %b\n" (Capability.peering_meets_all ())
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the testbed capability matrix (Table 1)")
    Term.(const run $ const ())

let demo_cmd =
  let run seed =
    let t = seeded_testbed seed in
    let e =
      match
        Testbed.new_experiment t ~id:"cli-demo" ~owner:"cli"
          ~description:"command line demonstration announcement" ()
      with
      | Ok e -> e
      | Error m -> failwith m
    in
    let client = Client.create ~id:"cli" ~experiment:e () in
    Testbed.connect_client t client
      ~sites:(List.map Testbed.site_name (Testbed.sites t));
    let p = List.hd e.Experiment.prefixes in
    ignore (Client.announce client p);
    Printf.printf "announced %s from %d sites: reachable from %d ASes\n"
      (Prefix.to_string p)
      (List.length (Testbed.sites t))
      (Testbed.reach_count t p);
    Client.withdraw client p;
    Printf.printf "withdrawn: %d ASes\n" (Testbed.reach_count t p)
  in
  Cmd.v (Cmd.info "demo" ~doc:"One-shot announce/withdraw round trip")
    Term.(const run $ seed_arg)

let emulate_cmd =
  let topo_arg =
    let doc = "Backbone to emulate: 'he' (Hurricane Electric) or 'abilene'." in
    let zoos =
      [ ("he", Topology_zoo.hurricane_electric);
        ("abilene", Topology_zoo.abilene)
      ]
    in
    Arg.(
      value
      & opt (enum zoos) Topology_zoo.hurricane_electric
      & info [ "topology" ] ~docv:"NAME" ~doc)
  in
  let run zoo =
    let engine = Engine.create () in
    let fwd = Forwarder.create engine in
    let emu = Mininext.of_topology engine fwd ~asn:(Asn.of_int 6939) zoo in
    Printf.printf "emulating %s (%d PoPs, %d links)\n" zoo.Topology_zoo.name
      (Topology_zoo.n_pops zoo) (Topology_zoo.n_links zoo);
    Mininext.start emu;
    Engine.run ~until:120.0 engine;
    List.iteri
      (fun i pop ->
        Mininext.originate_at emu (Mininext.pop_name pop)
          (Prefix.make (Ipv4.of_octets 184 164 (224 + (i mod 32)) 0) 24))
      (Mininext.pops emu);
    Engine.run_for engine 120.0;
    List.iter
      (fun pop ->
        Printf.printf "  %-14s %3d routes\n" (Mininext.pop_name pop)
          (Mininext.routes_at emu (Mininext.pop_name pop)))
      (Mininext.pops emu);
    Printf.printf "modelled memory: %.2f GB\n"
      (float_of_int (Mininext.container_model_bytes emu) /. 1073741824.0)
  in
  Cmd.v (Cmd.info "emulate" ~doc:"Emulate a Topology Zoo backbone")
    Term.(const run $ topo_arg)

let config_cmd =
  let file_arg =
    let doc = "Quagga-style configuration file to parse." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Peering_router.Config.parse (read_file file) with
    | Error e ->
      Printf.eprintf "parse error: %s\n" (Lines.error_to_string e);
      exit 1
    | Ok c ->
      (match Peering_router.Config.bgp c with
      | Some bgp ->
        Printf.printf "router bgp %s: %d networks, %d neighbors\n"
          (Asn.to_string bgp.Peering_router.Config.asn)
          (List.length bgp.Peering_router.Config.networks)
          (List.length bgp.Peering_router.Config.neighbors)
      | None -> print_endline "no router bgp block");
      List.iter
        (fun name ->
          match Peering_router.Config.compile_route_map c name with
          | Ok _ -> Printf.printf "route-map %s: compiles\n" name
          | Error e -> Printf.printf "route-map %s: ERROR %s\n" name e)
        (Peering_router.Config.route_map_names c)
  in
  Cmd.v (Cmd.info "config" ~doc:"Parse and check a router configuration")
    Term.(const run $ file_arg)

(* Shared by [check] and [verify]: an unparsable file is a PARSE error
   on the line the parser stopped at. *)
let parse_diag file (e : Lines.error) =
  Peering_check.Diagnostic.error ~file ?line:e.line ~code:"PARSE" e.msg

(* Shared by [check --json] and [verify --json]: one diagnostic as a
   JSON object with a fixed key set, [null] standing in for missing
   fields, printed by the canonical emitter so two runs over the same
   inputs are byte-identical. *)
let diag_json d =
  let module Json = Peering_obs.Json in
  let module Diagnostic = Peering_check.Diagnostic in
  let opt_str = function None -> Json.Null | Some s -> Json.String s in
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  Json.Obj
    [ ("file", opt_str d.Diagnostic.file);
      ("line", opt_int d.Diagnostic.line);
      ( "severity",
        Json.String (Diagnostic.severity_to_string d.Diagnostic.severity) );
      ("code", Json.String d.Diagnostic.code);
      ("message", Json.String d.Diagnostic.message);
      ("hint", opt_str d.Diagnostic.hint)
    ]

let plural n = if n = 1 then "" else "s"

let report_json_arg =
  json_flag
    ~doc:
      "Emit the report as a JSON document (byte-identical across runs over \
       the same inputs)."

(* The shared tail of [check] and [verify]: the sorted diagnostics as a
   [schema] JSON report carrying the [extra] fields, or as text between
   an optional [header] line and a "[summary]N errors, M warnings"
   line; then exit 1 if any error-severity diagnostic fired, else 0. *)
let report_and_exit ~json ~schema ~extra ?header ~summary diags =
  let module Json = Peering_obs.Json in
  let module Diagnostic = Peering_check.Diagnostic in
  let diags = Diagnostic.sort diags in
  let errors = Diagnostic.count Diagnostic.Error diags in
  let warnings = Diagnostic.count Diagnostic.Warning diags in
  if json then
    print_endline
      (Json.to_string ~indent:2
         (Json.Obj
            ((("schema", Json.String schema) :: extra)
            @ [ ("diagnostics", Json.List (List.map diag_json diags));
                ( "summary",
                  Json.Obj
                    [ ("errors", Json.Int errors);
                      ("warnings", Json.Int warnings);
                      ("infos", Json.Int (Diagnostic.count Diagnostic.Info diags))
                    ] )
              ])))
  else begin
    Option.iter print_endline header;
    List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
    Printf.printf "%s%d error%s, %d warning%s\n" summary errors (plural errors)
      warnings (plural warnings)
  end;
  exit (if errors > 0 then 1 else 0)

let check_cmd =
  let files_arg =
    let doc =
      "Files to analyze. Files ending in .exp are parsed as experiment \
       specs; everything else as Quagga-style router configurations, \
       except .world topologies, which $(b,verify) reads: a .world \
       file is refused with exit status 2 before any file is read. \
       Configurations are also checked against each other (session \
       consistency), and specs against each other (prefix overlap, ASN \
       collisions, cross-experiment poisoning)."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let codes_arg =
    let doc = "List the diagnostic codes and exit." in
    Arg.(value & flag & info [ "codes" ] ~doc)
  in
  let module Check = Peering_check.Check in
  let module Diagnostic = Peering_check.Diagnostic in
  let module Json = Peering_obs.Json in
  let run codes json files =
    if codes then begin
      List.iter
        (fun (code, sev, about) ->
          Printf.printf "%-16s %-8s %s\n" code
            (Diagnostic.severity_to_string sev)
            about)
        Check.codes;
      exit 0
    end;
    if files = [] then begin
      prerr_endline "check: no files given (try --codes)";
      exit 2
    end;
    List.iter
      (fun file ->
        if Filename.check_suffix file ".world" then begin
          Printf.eprintf
            "check: %s is a .world topology; run `peering_cli verify %s`\n"
            file file;
          exit 2
        end)
      files;
    let parse_failures = ref [] in
    let configs = ref [] and specs = ref [] in
    List.iter
      (fun file ->
        let text = read_file file in
        let parsed parse into =
          match parse text with
          | Ok v -> into := (Some file, v) :: !into
          | Error e -> parse_failures := parse_diag file e :: !parse_failures
        in
        if Filename.check_suffix file ".exp" then
          parsed Peering_check.Spec.parse specs
        else parsed Peering_router.Config.parse configs)
      files;
    let n_files = List.length files in
    report_and_exit ~json ~schema:"peering-check/1"
      ~extra:[ ("files", Json.Int n_files) ]
      ~summary:(Printf.sprintf "%d file%s checked: " n_files (plural n_files))
      (List.rev !parse_failures
      @ Check.check_configs (List.rev !configs)
      @ Check.check_specs (List.rev !specs))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze router configurations and experiment specs \
          (rcc-style); exit 1 if any error-severity diagnostic fires")
    Term.(const run $ codes_arg $ report_json_arg $ files_arg)

let verify_cmd =
  let files_arg =
    let doc =
      "Exactly one .world topology file plus any number of .exp \
       experiment specs to verify against it."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let module Check = Peering_check.Check in
  let module World = Peering_check.World in
  let module Json = Peering_obs.Json in
  let module As_graph = Peering_topo.As_graph in
  let run json files =
    let worlds, exps =
      List.partition (fun f -> Filename.check_suffix f ".world") files
    in
    let world_file =
      match worlds with
      | [ f ] -> f
      | [] ->
        prerr_endline "verify: expected a .world file";
        exit 2
      | _ ->
        prerr_endline "verify: expected exactly one .world file";
        exit 2
    in
    let bad = List.filter (fun f -> not (Filename.check_suffix f ".exp")) exps in
    if bad <> [] then begin
      Printf.eprintf "verify: not a .world or .exp file: %s\n"
        (String.concat ", " bad);
      exit 2
    end;
    let w =
      match World.parse (read_file world_file) with
      | Ok w -> w
      | Error e ->
        Printf.eprintf "%s: %s\n" world_file (Lines.error_to_string e);
        exit 2
    in
    let spec_failures = ref [] in
    List.iter
      (fun file ->
        match Peering_check.Spec.parse (read_file file) with
        | Ok s -> World.add_spec ~file w s
        | Error e -> spec_failures := parse_diag file e :: !spec_failures)
      exps;
    let diags = List.rev !spec_failures @ Check.check_world w in
    let g = World.graph w in
    let n_specs = List.length (World.specs w) in
    report_and_exit ~json ~schema:"peering-verify/1"
      ~extra:
        [ ("world", Json.String world_file);
          ( "shape",
            Json.Obj
              [ ("ases", Json.Int (As_graph.n_ases g));
                ("edges", Json.Int (As_graph.n_edges g));
                ("prefixes", Json.Int (As_graph.n_prefixes g));
                ("specs", Json.Int n_specs)
              ] )
        ]
      ~header:
        (Printf.sprintf "world %s: %d ASes, %d edges, %d prefixes, %d specs"
           world_file (As_graph.n_ases g) (As_graph.n_edges g)
           (As_graph.n_prefixes g) n_specs)
      ~summary:"" diags
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Semantically verify a .world topology (static leak \
          reachability, Gao-Rexford stability, structural checks) and \
          any experiment specs against it; exit 1 if any error-severity \
          diagnostic fires")
    Term.(const run $ report_json_arg $ files_arg)

(* ------------------------------------------------------------------ *)
(* The seeded end-to-end scenario behind [stats] and [trace]: an
   experiment announcement through controller/safety/mux-export, a wire
   BGP session, an IXP route-server pass and a dataplane packet, all on
   one deterministic engine. The chosen announcement, the route-server
   redistribution of its prefix and the tunnel packet it makes
   deliverable run under one root span, so the whole story lands in a
   single causal tree in the recorder ({!Peering_obs.Sink}). *)

module Scenario = struct
  module Metrics = Peering_obs.Metrics
  module Span = Peering_obs.Span
  module Sink = Peering_obs.Sink
  module Router = Peering_router.Router
  module Route_server = Peering_ixp.Route_server
  module Tunnel = Peering_dataplane.Tunnel
  module Fib = Peering_dataplane.Fib
  module Packet = Peering_dataplane.Packet

  (* A four-AS world with one injected leak, so the [stats] snapshot
     also exercises the static verifier's check.* metrics. *)
  let verified_world () =
    let w =
      Result.get_ok @@ Peering_check.World.parse
        "as 10 tier1\n\
         as 20 small-transit\n\
         as 30 small-transit\n\
         as 40 stub\n\
         edge 20 provider 10\n\
         edge 30 provider 10\n\
         edge 20 peer 30\n\
         edge 40 provider 20\n\
         originate 30 198.51.100.0/24\n\
         originate 40 203.0.113.0/24\n\
         leak 20 10\n"
    in
    ignore (Peering_check.Check.check_world w)

  let run ~seed =
    Metrics.reset ();
    verified_world ();
    (* Scenario 1: the quickstart experiment — controller, safety
       filter (one accepted announce, one blocked hijack, one
       withdrawal), route servers, propagation. *)
    let t = seeded_testbed seed in
    let engine = Testbed.engine t in
    Sink.start ~clock:(fun () -> Engine.now engine) ();
    let experiment =
      match
        Testbed.new_experiment t ~id:"stats" ~owner:"cli"
          ~description:"instrumented scenario for the stats subcommand" ()
      with
      | Ok e -> e
      | Error m -> failwith m
    in
    let client = Client.create ~id:"stats-client" ~experiment () in
    Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
    let prefix = List.hd experiment.Experiment.prefixes in
    (* Scenario 3 and 4 props, built up front so the announcement's
       root span below can cover their causally-linked activity: an
       IXP route server redistributing the experiment prefix (one
       community-filtered delivery), and a tunnel carrying a packet. *)
    let rs = Route_server.create () in
    List.iter (fun m -> Route_server.connect rs (Asn.of_int m)) [ 10; 20; 30 ];
    let fwd = Forwarder.create engine in
    Forwarder.add_node fwd "client";
    Forwarder.add_node fwd "mux";
    let tun = Tunnel.establish fwd engine ~a:"client" ~b:"mux" () in
    Tunnel.route_via tun ~at:"client" (Prefix.of_string_exn "172.16.0.0/12");
    Forwarder.set_route fwd "mux" (Prefix.of_string_exn "172.16.0.0/12")
      Fib.Local;
    Span.with_span
      ~attrs:[ ("prefix", Prefix.to_string prefix) ]
      "experiment.announce"
      (fun () ->
        ignore (Client.announce client prefix);
        let rs_route =
          Peering_bgp.Route.make prefix
            (Peering_bgp.Attrs.make
               ~as_path:(Peering_bgp.As_path.of_asns [ Asn.of_int 10 ])
               ~communities:[ Peering_bgp.Community.make 0 20 ]
               ~next_hop:(Ipv4.of_octets 192 0 2 1) ())
        in
        ignore (Route_server.announce rs ~from:(Asn.of_int 10) rs_route);
        Forwarder.inject fwd ~at:"client"
          (Packet.make ~src:(Ipv4.of_octets 10 1 0 1)
             ~dst:(Ipv4.of_octets 172 16 1 1) ~size:500 ()));
    ignore (Client.announce client (Prefix.of_string_exn "8.8.8.0/24"));
    Client.withdraw client prefix;
    ignore (Route_server.withdraw rs ~from:(Asn.of_int 10) prefix);
    (* Scenario 2: a wire BGP session between two software routers —
       FSM transitions, OPEN/KEEPALIVE/UPDATE bytes, decision runs. *)
    let a1 = Ipv4.of_octets 10 0 0 1 and a2 = Ipv4.of_octets 10 0 0 2 in
    let r1 = Router.create engine ~asn:(Asn.of_int 65001) ~router_id:a1 () in
    let r2 = Router.create engine ~asn:(Asn.of_int 65002) ~router_id:a2 () in
    Router.originate r1 (Prefix.of_string_exn "10.1.0.0/16");
    Router.originate r2 (Prefix.of_string_exn "10.2.0.0/16");
    let _session = Router.connect engine (r1, a1) (r2, a2) in
    Engine.run_for engine 30.0;
    Engine.run_for engine 1.0;
    Sink.stop ();
    prefix
end

let stats_cmd =
  let json_arg =
    json_flag ~doc:"Emit the snapshot as a JSON document instead of a table."
  in
  let events_arg =
    let doc =
      "Also dump every retained trace event to $(docv) as a JSON array \
       (one object per event: time, level, subsystem, causal span ids, \
       rendered message)."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let module Json = Peering_obs.Json in
  let module Span = Peering_obs.Span in
  let module Sink = Peering_obs.Sink in
  let module Obs_report = Peering_measure.Obs_report in
  let dump_events oc =
    let event (e : Sink.event) =
      let span_field f =
        match e.Sink.span with None -> Json.Null | Some c -> Json.Int (f c)
      in
      Json.Obj
        [ ("time", Json.Float e.Sink.time);
          ("level", Json.String (Peering_obs.Event.level_to_string e.Sink.level));
          ("subsystem", Json.String e.Sink.subsystem);
          ("trace", span_field (fun c -> c.Span.trace));
          ("span", span_field (fun c -> c.Span.span));
          ("message", Json.String (Sink.message e))
        ]
    in
    output_string oc
      (Json.to_string ~indent:2 (Json.List (List.map event (Sink.events ()))));
    close_out oc
  in
  let run seed json events_file =
    let events_oc = Option.map open_out_or_exit events_file in
    ignore (Scenario.run ~seed);
    Option.iter dump_events events_oc;
    if json then
      let doc =
        Json.Obj
          [ ("schema", Json.String "peering-stats/2");
            ("seed", Json.Int seed);
            ("dropped", Json.Int (Sink.dropped ()));
            ("metrics", Obs_report.to_json ());
            ( "trace",
              Json.Obj
                (List.map
                   (fun (subsystem, n) -> (subsystem, Json.Int n))
                   (Sink.count_by_subsystem ())) )
          ]
      in
      print_endline (Json.to_string ~indent:2 doc)
    else begin
      Printf.printf "trace events by subsystem (%d total, %d dropped):\n"
        (List.length (Sink.events ())) (Sink.dropped ());
      List.iter
        (fun (subsystem, n) -> Printf.printf "  %-24s %d\n" subsystem n)
        (Sink.count_by_subsystem ());
      print_newline ();
      print_string (Obs_report.render ())
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented scenario (experiment lifecycle + a wire BGP \
          session) and print every metric the testbed recorded")
    Term.(const run $ seed_arg $ json_arg $ events_arg)

let trace_cmd =
  let json_arg =
    json_flag
      ~doc:
        "Emit the causal tree as a JSON document (byte-identical across \
         identically seeded runs)."
  in
  let module Json = Peering_obs.Json in
  let module Span = Peering_obs.Span in
  let module Sink = Peering_obs.Sink in
  let run seed json =
    let prefix = Scenario.run ~seed in
    let spans = Sink.spans () in
    let by_id = Hashtbl.create 64 in
    let child_tbl = Hashtbl.create 64 in
    List.iter
      (fun (sp : Span.completed) ->
        Hashtbl.replace by_id sp.Span.ctx.Span.span sp;
        match sp.Span.ctx.Span.parent with
        | None -> ()
        | Some p ->
          Hashtbl.replace child_tbl p
            (sp :: Option.value (Hashtbl.find_opt child_tbl p) ~default:[]))
      spans;
    (* Span ids are minted sequentially, so sorting children by id
       recovers causal order deterministically. *)
    let children sp =
      List.sort
        (fun (a : Span.completed) (b : Span.completed) ->
          compare a.Span.ctx.Span.span b.Span.ctx.Span.span)
        (Option.value
           (Hashtbl.find_opt child_tbl sp.Span.ctx.Span.span)
           ~default:[])
    in
    let ev_tbl = Hashtbl.create 64 in
    List.iter
      (fun (e : Sink.event) ->
        match e.Sink.span with
        | None -> ()
        | Some c ->
          Hashtbl.replace ev_tbl c.Span.span
            (e :: Option.value (Hashtbl.find_opt ev_tbl c.Span.span) ~default:[]))
      (Sink.events ());
    let events_of sp =
      List.rev
        (Option.value (Hashtbl.find_opt ev_tbl sp.Span.ctx.Span.span)
           ~default:[])
    in
    let root =
      match
        List.find_opt
          (fun (sp : Span.completed) ->
            sp.Span.name = "experiment.announce"
            && List.mem_assoc "prefix" sp.Span.attrs
            && List.assoc "prefix" sp.Span.attrs = Prefix.to_string prefix)
          spans
      with
      | Some r -> r
      | None ->
        prerr_endline "trace: no span recorded for the scenario announcement";
        exit 1
    in
    (* Critical path: the chain from the root to the descendant whose
       span ends latest (ties go to the earliest-minted span). *)
    let rec latest_leaf best sp =
      let best =
        if sp.Span.ended > best.Span.ended then sp else best
      in
      List.fold_left latest_leaf best (children sp)
    in
    let tip = latest_leaf root root in
    let rec path_to sp acc =
      let acc = sp :: acc in
      match sp.Span.ctx.Span.parent with
      | None -> acc
      | Some p -> (
        match Hashtbl.find_opt by_id p with
        | Some parent -> path_to parent acc
        | None -> acc)
    in
    let critical = path_to tip [] in
    let tree_size =
      let rec count sp = 1 + List.fold_left (fun n c -> n + count c) 0 (children sp) in
      count root
    in
    if json then begin
      let attrs_json attrs =
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)
      in
      let event_json (e : Sink.event) =
        Json.Obj
          [ ("time", Json.Float e.Sink.time);
            ( "level",
              Json.String (Peering_obs.Event.level_to_string e.Sink.level) );
            ("subsystem", Json.String e.Sink.subsystem);
            ("message", Json.String (Sink.message e))
          ]
      in
      let rec span_json (sp : Span.completed) =
        Json.Obj
          [ ("name", Json.String sp.Span.name);
            ("span", Json.Int sp.Span.ctx.Span.span);
            ("start", Json.Float sp.Span.started);
            ("end", Json.Float sp.Span.ended);
            ("attrs", attrs_json sp.Span.attrs);
            ("events", Json.List (List.map event_json (events_of sp)));
            ("children", Json.List (List.map span_json (children sp)))
          ]
      in
      let doc =
        Json.Obj
          [ ("schema", Json.String "peering-trace/1");
            ("seed", Json.Int seed);
            ("prefix", Json.String (Prefix.to_string prefix));
            ("spans_recorded", Json.Int (List.length spans));
            ("spans_dropped", Json.Int (Sink.dropped ()));
            ("tree_spans", Json.Int tree_size);
            ("tree", span_json root);
            ( "critical_path",
              Json.List
                (List.map
                   (fun (sp : Span.completed) ->
                     Json.Obj
                       [ ("name", Json.String sp.Span.name);
                         ("span", Json.Int sp.Span.ctx.Span.span);
                         ("start", Json.Float sp.Span.started);
                         ("end", Json.Float sp.Span.ended)
                       ])
                   critical) )
          ]
      in
      print_endline (Json.to_string ~indent:2 doc)
    end
    else begin
      Printf.printf "causal trace for announcement of %s (seed %d)\n"
        (Prefix.to_string prefix) seed;
      Printf.printf "%d spans in this tree (%d recorded, %d dropped)\n\n"
        tree_size (List.length spans) (Sink.dropped ());
      let attrs_str attrs =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "  %s=%s" k v) attrs)
      in
      let rec print_span indent (sp : Span.completed) =
        Printf.printf "%s%s  [%.3f, %.3f]%s\n" indent sp.Span.name
          sp.Span.started sp.Span.ended
          (attrs_str sp.Span.attrs);
        List.iter
          (fun (e : Sink.event) ->
            Printf.printf "%s  * [%.3f] %s\n" indent e.Sink.time
              (Sink.message e))
          (events_of sp);
        List.iter (print_span (indent ^ "    ")) (children sp)
      in
      print_span "" root;
      Printf.printf "\ncritical path (%d spans, ends t=%.3f):\n"
        (List.length critical) tip.Span.ended;
      Printf.printf "  %s\n"
        (String.concat " -> "
           (List.map (fun (sp : Span.completed) -> sp.Span.name) critical))
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the seeded end-to-end scenario with causal span collection \
          on and render the announcement's span tree (safety verdict, mux \
          export, wire UPDATEs, route-server fan-out, tunnel forward) plus \
          its critical path")
    Term.(const run $ seed_arg $ json_arg)

let chaos_cmd =
  let json_arg = json_flag ~doc:"Emit the chaos report as a JSON document." in
  let list_arg =
    let doc = "List the drill names, then exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let scenario_arg =
    let doc = "Run a single drill by name; see --list." in
    Arg.(
      value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let module Metrics = Peering_obs.Metrics in
  let module Json = Peering_obs.Json in
  let module Campaign = Peering_fault.Campaign in
  let print_report (report : Campaign.report) json =
    if json then
      print_endline (Json.to_string ~indent:2 (Campaign.to_json report))
    else begin
      Printf.printf "%-12s %-13s %-12s %10s %6s  %s\n" "drill" "class"
        "reconverged" "recovery_s" "lost" "detail";
      List.iter
        (fun (o : Campaign.outcome) ->
          Printf.printf "%-12s %-13s %-12b %10.2f %6d  %s\n" o.Campaign.drill
            o.Campaign.slo_class o.Campaign.reconverged o.Campaign.recovery_s
            o.Campaign.routes_lost o.Campaign.detail;
          if o.Campaign.tenant_reaches <> [] then begin
            let restored =
              List.for_all
                (fun (_, base, final) -> final = base)
                o.Campaign.tenant_reaches
            in
            Printf.printf "%14s tenants: %d scheduled, reach restored: %b\n"
              "" (List.length o.Campaign.tenant_reaches) restored
          end;
          let b = o.Campaign.blast in
          Printf.printf "%14s blast: sites [%s]; %d trace spans; %s\n" ""
            (String.concat ", " b.Campaign.impacted_sites)
            b.Campaign.trace_spans
            (String.concat "; "
               (List.map
                  (fun (d : Campaign.reach_dip) ->
                    Printf.sprintf "%s dipped %d->%d for %.1fs"
                      d.Campaign.dip_prefix d.Campaign.baseline_reach
                      d.Campaign.min_reach
                      (d.Campaign.dip_until -. d.Campaign.dip_from))
                  b.Campaign.reach_dips)))
        report.Campaign.outcomes;
      if report.Campaign.slos <> [] then print_slos report.Campaign.slos;
      if report.Campaign.sweep <> [] then begin
        Printf.printf "\n%-10s %-10s %-8s %8s %14s  %s\n" "half_life"
          "suppress" "reuse" "flaps" "suppressed_s" "released";
        List.iter
          (fun (r : Campaign.sweep_row) ->
            Printf.printf "%-10.0f %-10.0f %-8.0f %8d %14.1f  %b\n"
              r.Campaign.half_life r.Campaign.suppress_threshold
              r.Campaign.reuse_threshold r.Campaign.flaps_to_suppression
              r.Campaign.suppressed_s r.Campaign.released)
          report.Campaign.sweep
      end;
      Printf.printf "\nzero routes lost: %b; campaign passed: %b\n"
        report.Campaign.zero_routes_lost report.Campaign.passed
    end;
    if not report.Campaign.passed then exit 1
  in
  let run seed json list scenario =
    if list then List.iter print_endline Campaign.drills
    else begin
      (* Reset the global registry so two same-seed invocations emit
         byte-identical documents regardless of process history. *)
      Metrics.reset ();
      match scenario with
      | Some name when List.mem name Campaign.drills ->
        print_report (Campaign.run ~seed ~drills:[ name ] ()) json
      | Some name ->
        Printf.eprintf "unknown drill %S; try --list\n" name;
        exit 2
      | None -> print_report (Campaign.run ~seed ()) json
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault drills: correlated faults on the default testbed \
          and single fault classes on a standalone BGP wire, each judged \
          by zero routes lost and a per-class p99 recovery SLO, with \
          blast-radius accounting; exits 1 when any drill fails")
    Term.(const run $ seed_arg $ json_arg $ list_arg $ scenario_arg)

let sched_cmd =
  let json_arg =
    json_flag ~doc:"Emit the schedule as a peering-sched/2 JSON document."
  in
  let tenants_arg =
    let doc = "Number of tenant proposals to submit." in
    Arg.(value & opt (count ~min:0) 16 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let module Metrics = Peering_obs.Metrics in
  let module Json = Peering_obs.Json in
  let run seed json n_tenants =
    (* Reset the global registry so two same-seed invocations emit
       byte-identical documents regardless of process history. *)
    Metrics.reset ();
    let t = seeded_testbed seed in
    let rng = Rng.create (seed + 7919) in
    let sched =
      Scheduler.create ~extra_supply:
          [ Prefix.of_string_exn "184.164.192.0/19";
            Prefix.of_string_exn "184.164.128.0/18"
          ]
        t
    in
    let site_names = List.map Testbed.site_name (Testbed.sites t) in
    let tenant_sites = Hashtbl.create 16 in
    let verdicts =
      List.init n_tenants (fun i ->
          let tenant = Printf.sprintf "tenant-%02d" i in
          let sites =
            if Rng.bernoulli rng 0.5 then []
            else [ List.nth site_names (Rng.int rng (List.length site_names)) ]
          in
          Hashtbl.replace tenant_sites tenant sites;
          let poison_targets =
            (* a few tenants probe the admission checks: poisoning a
               live tenant's origin must be rejected *)
            if i mod 5 <> 4 then []
            else
              match Scheduler.tenants sched with
              | prior :: _ -> (
                match Scheduler.client sched prior with
                | Some c -> (Client.experiment c).Experiment.private_asns
                | None -> [])
              | [] -> []
          in
          let p =
            Scheduler.proposal ~n_prefixes:(1 + Rng.int rng 2)
              ~may_poison:(poison_targets <> [])
              ~poison_targets ~sites tenant
          in
          (tenant, Scheduler.admit sched p))
    in
    (* every admitted tenant announces its lease; a few churn once to
       exercise the fair-share batcher *)
    List.iter
      (fun tenant ->
        List.iter
          (fun p -> ignore (Scheduler.request_announce sched ~tenant p))
          (Scheduler.leased_prefixes sched tenant))
      (Scheduler.tenants sched);
    (* churn a single site only: a full-fanout withdraw charges one
       dampening flap per connected mux, and the safety filter would
       (correctly) suppress the immediate re-announcement *)
    List.iteri
      (fun i tenant ->
        if i mod 3 = 0 then begin
          match Scheduler.leased_prefixes sched tenant with
          | p :: _ ->
            let site =
              match Hashtbl.find_opt tenant_sites tenant with
              | Some (s :: _) -> s
              | Some [] | None -> List.hd site_names
            in
            ignore (Scheduler.request_withdraw sched ~tenant ~sites:[ site ] p);
            ignore
              (Scheduler.request_announce sched ~tenant ~sites:[ site ] p)
          | [] -> ()
        end)
      (Scheduler.tenants sched);
    ignore (Scheduler.pump sched);
    let violations = Scheduler.isolation_violations sched in
    if json then
      print_endline (Json.to_string ~indent:2 (Scheduler.to_json sched))
    else begin
      Printf.printf "%-12s %-10s %8s  %s\n" "tenant" "verdict" "reach"
        "leases";
      List.iter
        (fun (tenant, verdict) ->
          match verdict with
          | Scheduler.Admitted _ when Scheduler.is_running sched tenant ->
            let leases = Scheduler.leased_prefixes sched tenant in
            let reach =
              match leases with
              | p :: _ -> Testbed.reach_count t p
              | [] -> 0
            in
            Printf.printf "%-12s %-10s %8d  %s\n" tenant "admitted" reach
              (String.concat " " (List.map Prefix.to_string leases))
          | Scheduler.Admitted _ ->
            Printf.printf "%-12s %-10s %8s  -\n" tenant "expired" "-"
          | Scheduler.Rejected issues ->
            Printf.printf "%-12s %-10s %8s  %s\n" tenant "rejected" "-"
              (String.concat ", "
                 (List.map (fun i -> i.Scheduler.issue_code) issues)))
        verdicts;
      Printf.printf
        "\n%d/%d admitted; %d rounds, %d ops applied; isolation violations: \
         %d\n"
        (List.length (Scheduler.tenants sched))
        n_tenants (Scheduler.rounds_run sched) (Scheduler.ops_applied sched)
        violations
    end;
    if violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Run the multi-tenant experiment scheduler on the default testbed: \
          proposals admitted by one structural check against every running \
          tenant (prefix overlap, cross-tenant poisoning), prefix leases \
          from the pool, fair-share update batching and the isolation \
          oracle. Exits 1 if any isolation violation is detected.")
    Term.(const run $ seed_arg $ json_arg $ tenants_arg)

let monitor_cmd =
  let json_arg =
    json_flag
      ~doc:
        "Emit the health report as a JSON document (byte-identical across \
         identically seeded runs)."
  in
  let module Metrics = Peering_obs.Metrics in
  let module Json = Peering_obs.Json in
  let module Monitor = Peering_measure.Monitor in
  let module Campaign = Peering_fault.Campaign in
  (* A deterministic scenario that exercises the whole telemetry
     plane: every mux streams BMP to one station; routes are fed, one
     mux crashes and recovers, and each detector sees exactly one
     incident (a MOAS, an out-of-cone leak, a flap storm, a
     reachability dip from the crash). *)
  let run seed json =
    Metrics.reset ();
    let t = seeded_testbed seed in
    let engine = Testbed.engine t in
    let mon = Monitor.create () in
    List.iter
      (fun site ->
        let srv = Testbed.site_server site in
        Server.set_bmp_sink srv
          (Some (Monitor.feed mon ~mux:(Server.name srv))))
      (Testbed.sites t);
    let fed =
      List.fold_left
        (fun acc site ->
          acc
          + Testbed.feed_peer_routes t ~site:(Testbed.site_name site))
        0 (Testbed.sites t)
    in
    Engine.run_for engine 1.0;
    (* Arm the detectors, then stage one incident per kind. *)
    let site1 = List.hd (Testbed.sites t) in
    let mux1 = Testbed.site_name site1 in
    let srv1 = Testbed.site_server site1 in
    let p1, p2 =
      match Testbed.peers_at t mux1 with
      | a :: b :: _ -> (a, b)
      | _ -> failwith "monitor: site has fewer than two peers"
    in
    let moas_pfx = Prefix.of_string_exn "203.0.113.0/24" in
    let leak_pfx = Prefix.of_string_exn "198.51.100.0/24" in
    let flap_pfx = Prefix.of_string_exn "192.0.2.0/24" in
    let dip_pfx = Prefix.of_string_exn "100.66.0.0/24" in
    Monitor.watch_moas mon moas_pfx ~origin:(Asn.of_int 65010);
    Monitor.allow_export mon ~mux:mux1 ~peer:p1 (fun pfx ->
        Prefix.compare pfx leak_pfx <> 0);
    Monitor.watch_flaps mon flap_pfx;
    Monitor.watch_reach mon dip_pfx;
    (* MOAS: the legitimate origin, then a second origin. *)
    Server.learn_route srv1 ~peer:p1 ~path:[ p1; Asn.of_int 65010 ] moas_pfx;
    Engine.run_for engine 0.5;
    Server.learn_route srv1 ~peer:p2 ~path:[ p2; Asn.of_int 65666 ] moas_pfx;
    (* Leak: p1 exports a prefix outside its registered cone. *)
    Server.learn_route srv1 ~peer:p1 ~path:[ p1; Asn.of_int 65020 ] leak_pfx;
    (* Flap churn: four announce/withdraw cycles inside the window. *)
    for _ = 1 to 4 do
      Engine.run_for engine 0.5;
      Server.learn_route srv1 ~peer:p2 ~path:[ p2; Asn.of_int 65030 ] flap_pfx;
      Engine.run_for engine 0.5;
      Server.withdraw_learned srv1 ~peer:p2 flap_pfx
    done;
    (* Reachability: two tables hold the prefix (arming the floor),
       then the mux crashes and both vanish at once. *)
    Server.learn_route srv1 ~peer:p1 ~path:[ p1; Asn.of_int 65040 ] dip_pfx;
    Server.learn_route srv1 ~peer:p2 ~path:[ p2; Asn.of_int 65040 ] dip_pfx;
    Engine.run_for engine 1.0;
    Server.crash srv1;
    Engine.run_for engine 5.0;
    Server.restart srv1;
    ignore (Testbed.feed_peer_routes t ~site:mux1);
    Engine.run_for engine 1.0;
    (* Stats Reports for the reported-vs-reconstructed cross-check. *)
    List.iter
      (fun site -> Server.emit_bmp_stats (Testbed.site_server site))
      (Testbed.sites t);
    (* Reconstruction check: live RIB digest vs the station's. *)
    let mux_rows =
      List.map
        (fun site ->
          let srv = Testbed.site_server site in
          let name = Server.name srv in
          let live = Server.rib_digest srv in
          let rebuilt = Monitor.rib_digest mon ~mux:name in
          let stats_ok =
            List.for_all
              (fun (asn, bindings) ->
                match
                  Monitor.reported_routes mon ~mux:name
                    ~peer:(Asn.of_int asn)
                with
                | Some n -> n = List.length bindings
                | None -> false)
              (Monitor.adj_rib_dump mon ~mux:name)
          in
          ( name,
            Monitor.mux_up mon ~mux:name,
            Monitor.route_count mon ~mux:name,
            stats_ok,
            live = rebuilt ))
        (Testbed.sites t)
    in
    (* Feed health: ingest rate over the last minute, SLO verdicts for
       mux recovery (chaos campaign budget) and feed cadence. *)
    let rate = Monitor.ingest_rate mon in
    let verdict name ~metric ~budget_s =
      let samples, dropped = Metrics.histogram_samples metric in
      Stats.slo ~name ~budget_s ~dropped samples
    in
    let recovery_budget =
      (List.find
         (fun s -> s.Campaign.slo_class = "compound")
         Campaign.default_slos)
        .Campaign.p99_budget_s
    in
    let slos =
      [ verdict "mux_recovery" ~metric:"core.server.downtime_s"
          ~budget_s:recovery_budget;
        verdict "feed_gap" ~metric:"measure.monitor.feed_gap_s" ~budget_s:5.0
      ]
    in
    let alerts = Monitor.alerts mon in
    if json then begin
      let doc =
        Json.Obj
          [ ("schema", Json.String "peering-monitor/2");
            ("seed", Json.Int seed);
            ( "ingest",
              Json.Obj
                [ ("messages", Json.Int (Monitor.messages mon));
                  ("bytes", Json.Int (Monitor.bytes_ingested mon));
                  ("parse_errors", Json.Int (Monitor.parse_errors mon));
                  ("routes_fed", Json.Int fed);
                  ("rate_per_s", Json.Float rate)
                ] );
            ( "muxes",
              Json.List
                (List.map
                   (fun (name, up, routes, stats_ok, digest_match) ->
                     Json.Obj
                       [ ("name", Json.String name);
                         ("up", Json.Bool up);
                         ("routes", Json.Int routes);
                         ("stats_ok", Json.Bool stats_ok);
                         ("digest_match", Json.Bool digest_match)
                       ])
                   mux_rows) );
            ( "alerts",
              Json.List
                (List.map
                   (fun (a : Monitor.alert) ->
                     Json.Obj
                       [ ("time", Json.Float a.Monitor.a_time);
                         ( "kind",
                           Json.String
                             (Peering_obs.Event.alert_kind_to_string
                                a.Monitor.a_kind) );
                         ("mux", Json.String a.Monitor.a_mux);
                         ( "prefix",
                           Json.String (Prefix.to_string a.Monitor.a_prefix)
                         );
                         ("detail", Json.String a.Monitor.a_detail)
                       ])
                   alerts) );
            ("slos", Json.List (List.map Stats.slo_json slos))
          ]
      in
      print_endline (Json.to_string ~indent:2 doc)
    end
    else begin
      Printf.printf
        "ingest: %d BMP messages (%d bytes) from %d muxes, %d parse \
         errors, %.2f msg/s over the last 60s\n"
        (Monitor.messages mon)
        (Monitor.bytes_ingested mon)
        (List.length (Monitor.muxes mon))
        (Monitor.parse_errors mon)
        rate;
      Printf.printf "\n%-16s %-5s %7s %9s  %s\n" "mux" "up" "routes"
        "stats-ok" "reconstruction";
      List.iter
        (fun (name, up, routes, stats_ok, digest_match) ->
          Printf.printf "%-16s %-5b %7d %9b  %s\n" name up routes stats_ok
            (if digest_match then "byte-identical" else "DIVERGED"))
        mux_rows;
      Printf.printf "\nalerts (%d):\n" (List.length alerts);
      List.iter
        (fun (a : Monitor.alert) ->
          Printf.printf "  t=%-8.2f %-16s %-14s %-18s %s\n" a.Monitor.a_time
            (Peering_obs.Event.alert_kind_to_string a.Monitor.a_kind)
            a.Monitor.a_mux
            (Prefix.to_string a.Monitor.a_prefix)
            a.Monitor.a_detail)
        alerts;
      print_slos slos
    end;
    if List.exists (fun (_, _, _, _, m) -> not m) mux_rows then exit 1
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run the live telemetry plane on a seeded testbed: every mux \
          exports BMP (RFC 7854) to one monitoring station, which rebuilds \
          the Adj-RIBs-In byte-identically, runs the anomaly detectors \
          (MOAS, out-of-cone leak, flap churn, reachability dip) and \
          reports windowed health with SLO burn rates. Exits 1 if any \
          reconstruction diverges.")
    Term.(const run $ seed_arg $ json_arg)

let portal_cmd =
  let run seed =
    let t = seeded_testbed seed in
    let portal = Portal.create t in
    (match
       Portal.register portal ~username:"demo" ~email:"demo@example.edu"
         ~affiliation:"Example University"
     with
    | Ok () -> print_endline "account demo: approved"
    | Error e -> Printf.printf "account demo: %s\n" e);
    (match
       Portal.submit portal ~username:"demo" ~id:"cli-portal"
         ~description:
           "demonstration proposal exercising the provisioning pipeline"
     with
    | Ok () -> ()
    | Error e -> failwith e);
    List.iter
      (fun (id, outcome) ->
        match outcome with
        | Ok _ -> Printf.printf "proposal %s: approved and activated\n" id
        | Error e -> Printf.printf "proposal %s: %s\n" id e)
      (Portal.forward_queued portal);
    match Portal.provision portal ~experiment_id:"cli-portal" with
    | Ok kit ->
      Printf.printf "\n--- generated client configuration ---\n%s"
        kit.Portal.client_config;
      Printf.printf "--- tunnel endpoints ---\n";
      List.iter
        (fun (site, addr) ->
          Printf.printf "  %-14s %s\n" site (Ipv4.to_string addr))
        kit.Portal.tunnel_endpoints
    | Error e -> Printf.printf "provisioning failed: %s\n" e
  in
  Cmd.v
    (Cmd.info "portal"
       ~doc:"Walk the account/vetting/provisioning pipeline end to end")
    Term.(const run $ seed_arg)

(* ------------------------------------------------------------------ *)
(* MRT ingest: dump seeded worlds as RouteViews-style files, inspect
   them, and replay them into a mux-style table. *)

module Mrt = Peering_measure.Mrt

let read_file_bytes path = Bytes.of_string (read_file path)

let mrt_file_arg =
  let doc = "MRT file to read." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let mrt_dump_cmd =
  let out_arg =
    let doc = "Output file for the dump." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let peers_arg =
    let doc = "Collector peers in the index table." in
    Arg.(value & opt (count ~min:1) 8 & info [ "peers" ] ~docv:"N" ~doc)
  in
  let updates_arg =
    let doc = "Append a BGP4MP update stream after the RIB records." in
    Arg.(value & flag & info [ "updates" ] ~doc)
  in
  let limit_arg =
    let doc = "Cap the update stream at N prefixes." in
    Arg.(value & opt (some (count ~min:0)) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run seed scale out peers updates limit =
    let oc = open_out_or_exit out in
    let w = Gen.generate (params_of ~seed ~scale) in
    let records = Mrt.table_of_world ~seed ~peers w in
    let records =
      if updates then records @ Mrt.updates_of_world ~seed ?limit w
      else records
    in
    let bytes = Mrt.encode records in
    output_bytes oc bytes;
    close_out oc;
    (match Mrt.summarize bytes with
    | Ok s -> Format.printf "%a@." Mrt.pp_summary s
    | Error e -> failwith (Mrt.error_to_string e));
    Format.printf "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Generate an MRT (RFC 6396) TABLE_DUMP_V2 RIB dump of a seeded \
          world, optionally followed by a BGP4MP update stream. Same seed, \
          same bytes.")
    Term.(
      const run $ seed_arg $ scale_arg $ out_arg $ peers_arg $ updates_arg
      $ limit_arg)

let mrt_info_cmd =
  let run file =
    match Mrt.summarize (read_file_bytes file) with
    | Ok s -> Format.printf "%a@." Mrt.pp_summary s
    | Error e ->
      Format.eprintf "error: %s@." (Mrt.error_to_string e);
      exit 1
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Decode an MRT file and print record/peer/entry counts")
    Term.(const run $ mrt_file_arg)

let mrt_replay_cmd =
  let run file =
    let bytes = read_file_bytes file in
    match Mrt.load bytes with
    | Error e ->
      Format.eprintf "error: %s@." (Mrt.error_to_string e);
      exit 1
    | Ok l ->
      let words = Obj.reachable_words (Obj.repr l.Mrt.rib) in
      Format.printf "records            %d@." l.Mrt.records;
      Format.printf "peers              %d@." (Array.length l.Mrt.peers);
      Format.printf "v4 routes loaded   %d@." l.Mrt.routes4;
      Format.printf "v6 entries parsed  %d@." l.Mrt.entries6;
      Format.printf "updates applied    %d@." l.Mrt.updates;
      Format.printf "table prefixes     %d@."
        (Peering_bgp.Rib.prefix_count l.Mrt.rib);
      Format.printf "table routes       %d@."
        (Peering_bgp.Rib.route_count l.Mrt.rib);
      Format.printf "table heap         %.1f MB@."
        (float_of_int (words * Sys.word_size / 8) /. 1_048_576.)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay an MRT file into a mux-style table: RIB entries install \
          as per-peer Adj-RIB-In routes, BGP4MP UPDATEs apply as \
          announces/withdraws")
    Term.(const run $ mrt_file_arg)

let mrt_cmd =
  Cmd.group
    (Cmd.info "mrt"
       ~doc:
         "MRT (RFC 6396) ingest: dump seeded worlds, inspect and replay \
          RouteViews-style files")
    [ mrt_dump_cmd; mrt_info_cmd; mrt_replay_cmd ]

let () =
  let info =
    Cmd.info "peering" ~version:"1.0.0"
      ~doc:"PEERING testbed reproduction toolkit"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ world_cmd; amsix_cmd; table1_cmd; demo_cmd; emulate_cmd;
            config_cmd; check_cmd; verify_cmd; portal_cmd; stats_cmd;
            trace_cmd; chaos_cmd; sched_cmd; monitor_cmd; mrt_cmd ]))
