(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index). Run with no arguments for all
   experiments, or pass a subset of: e1 e2 e3 f2 e4 t1 a1..a6 prop chaos
   mrt sched bmp (scale the MRT dump with
   MRT_BENCH_PREFIXES and the BMP feed with BMP_BENCH_PREFIXES, both
   default 1M).
   Pass --bechamel to additionally run microbenchmarks of the core
   primitives, and --json FILE to also write every paper-vs-measured
   row plus the metrics snapshot as a machine-readable artifact. *)

open Peering_net
open Peering_core
module Engine = Peering_sim.Engine
module Rng = Peering_sim.Rng
module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph
module Customer_cone = Peering_topo.Customer_cone
module Propagation = Peering_topo.Propagation
module Topology_zoo = Peering_topo.Topology_zoo
module Fabric = Peering_ixp.Fabric
module Amsix = Peering_ixp.Amsix
module Peering_policy = Peering_ixp.Peering_policy
module Router = Peering_router.Router
module Memory = Peering_router.Memory
module Rib = Peering_bgp.Rib
module Reachability = Peering_measure.Reachability
module Webworkload = Peering_measure.Webworkload
module Mininext = Peering_emu.Mininext
module Forwarder = Peering_dataplane.Forwarder
module Fib = Peering_dataplane.Fib
module Packet = Peering_dataplane.Packet

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* With --json, every paper-vs-measured row is also collected here
   (newest first; the driver drains it after each experiment). *)
let json_rows : (string * string * string) list ref = ref []
let collect_rows = ref false

let paper_vs_measured ~label ~paper ~measured =
  if !collect_rows then json_rows := (label, paper, measured) :: !json_rows;
  Printf.printf "  %-52s paper: %-16s measured: %s\n" label paper measured

(* ------------------------------------------------------------------ *)
(* Shared paper-scale world (used by E1/E2/E3/A1). Built once. *)

type world_ctx = {
  world : Gen.world;
  fabric : Fabric.t;
  peers : Asn.t list;  (* RS users + accepted bilateral *)
  rs_peers : Asn.t list;
  bilateral : Asn.t list;
  responses : (Fabric.response * int) list;
}

let world_ctx : world_ctx Lazy.t =
  lazy
    (let t0 = Sys.time () in
     let world = Gen.generate Gen.paper_scale_params in
     Printf.printf "[world] %d ASes, %d edges, %d prefixes (%.1fs)\n%!"
       (As_graph.n_ases world.Gen.graph)
       (As_graph.n_edges world.Gen.graph)
       (As_graph.n_prefixes world.Gen.graph)
       (Sys.time () -. t0);
     let rng = Rng.create 2014 in
     let fabric = Amsix.build ~rng world in
     let rs_peers = Fabric.route_server_users fabric in
     (* Send a peering request to every non-RS member (the paper sent
        "a few dozen"; we exercise the whole funnel). *)
     let responses_tbl = Hashtbl.create 8 in
     List.iter
       (fun (m : Fabric.member) ->
         let r = Fabric.request_peering fabric ~target:m.Fabric.asn in
         Hashtbl.replace responses_tbl r
           (1 + Option.value (Hashtbl.find_opt responses_tbl r) ~default:0))
       (Fabric.non_route_server_members fabric);
     let bilateral = Fabric.bilateral_peers fabric in
     let peers = List.sort_uniq Asn.compare (rs_peers @ bilateral) in
     let responses =
       Hashtbl.fold (fun r c acc -> (r, c) :: acc) responses_tbl []
     in
     { world; fabric; peers; rs_peers; bilateral; responses })

let reach_ctx : Reachability.t Lazy.t =
  lazy
    (let c = Lazy.force world_ctx in
     let t0 = Sys.time () in
     let r = Reachability.peer_routes ~selective:77 c.world ~peers:c.peers in
     Printf.printf "[reach] peer-route table built (%.1fs)\n%!"
       (Sys.time () -. t0);
     r)

(* ------------------------------------------------------------------ *)
(* E1: the AMS-IX peering funnel (§4.1 "Obtaining peers") *)

let e1 () =
  section "E1  AMS-IX peering funnel (Section 4.1, 'Obtaining peers')";
  let c = Lazy.force world_ctx in
  let census = Fabric.policy_census c.fabric in
  let count p = List.assoc p census in
  paper_vs_measured ~label:"member ASes" ~paper:"669"
    ~measured:(string_of_int (Fabric.n_members c.fabric));
  paper_vs_measured ~label:"peering via route servers" ~paper:"554"
    ~measured:(string_of_int (List.length c.rs_peers));
  paper_vs_measured ~label:"non-RS members" ~paper:"115"
    ~measured:
      (string_of_int (List.length (Fabric.non_route_server_members c.fabric)));
  paper_vs_measured ~label:"  with open policy" ~paper:"48"
    ~measured:(string_of_int (count Peering_policy.Open));
  paper_vs_measured ~label:"  with closed policy" ~paper:"12"
    ~measured:(string_of_int (count Peering_policy.Closed));
  paper_vs_measured ~label:"  case-by-case" ~paper:"40"
    ~measured:(string_of_int (count Peering_policy.Case_by_case));
  paper_vs_measured ~label:"  unlisted" ~paper:"15"
    ~measured:(string_of_int (count Peering_policy.Unlisted));
  (* The paper's request anecdotes concern the open-policy members it
     actually asked; responses are sticky, so re-querying tallies them. *)
  let open_tally r =
    List.length
      (List.filter
         (fun (m : Fabric.member) ->
           m.Fabric.policy = Peering_policy.Open
           && Fabric.request_peering c.fabric ~target:m.Fabric.asn = r)
         (Fabric.non_route_server_members c.fabric))
  in
  paper_vs_measured ~label:"open-policy requests accepted"
    ~paper:"vast majority"
    ~measured:
      (Printf.sprintf "%d of %d" (open_tally Fabric.Accepted)
         (count Peering_policy.Open));
  paper_vs_measured ~label:"replied with questions (open members)" ~paper:"1"
    ~measured:(string_of_int (open_tally Fabric.Replied_with_questions));
  paper_vs_measured ~label:"no response (open members)" ~paper:"a handful"
    ~measured:(string_of_int (open_tally Fabric.No_response));
  Printf.printf "  total peers after funnel: %d (all accepted bilateral: %d)\n"
    (List.length c.peers)
    (List.length c.bilateral)

(* ------------------------------------------------------------------ *)
(* E2: reachability via peering (§4.1 "Who do we peer with / which
   destinations") *)

let e2 () =
  section "E2  Destinations reachable via peering (Section 4.1)";
  let c = Lazy.force world_ctx in
  let reach = Lazy.force reach_ctx in
  let n = Reachability.n_prefixes reach in
  let frac = Reachability.fraction_of_internet reach c.world in
  paper_vs_measured ~label:"prefixes with peer routes" ~paper:">131,000"
    ~measured:(Printf.sprintf "%d" n);
  paper_vs_measured ~label:"fraction of the Internet" ~paper:"~25%"
    ~measured:(Printf.sprintf "%.1f%%" (100.0 *. frac));
  paper_vs_measured ~label:"peers among top-50 ASes (customer cone)"
    ~paper:">=13"
    ~measured:
      (string_of_int (Reachability.peers_in_top c.world ~peers:c.peers 50));
  paper_vs_measured ~label:"peers among top-100 ASes" ~paper:"27"
    ~measured:
      (string_of_int (Reachability.peers_in_top c.world ~peers:c.peers 100));
  let countries = Reachability.peer_countries c.world ~peers:c.peers in
  paper_vs_measured ~label:"countries of peers" ~paper:"59"
    ~measured:(string_of_int (Country.Set.cardinal countries));
  (* per-peer route-count distribution (quoted in §4.2's discussion) *)
  let per_peer = Reachability.routes_per_peer ~selective:77 c.world ~peers:c.peers in
  let over_10k = List.length (List.filter (fun (_, n) -> n > 10_000) per_peer) in
  let under_100 = List.length (List.filter (fun (_, n) -> n < 100) per_peer) in
  paper_vs_measured ~label:"peers exporting >10K routes" ~paper:"5"
    ~measured:(string_of_int over_10k);
  paper_vs_measured ~label:"peers exporting <100 routes" ~paper:"307"
    ~measured:(string_of_int under_100);
  match per_peer with
  | (top_asn, top_n) :: _ ->
    Printf.printf "  largest peer feed: %s with %d prefixes\n"
      (Asn.to_string top_asn) top_n
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* E3: Alexa-style content reachability (§4.1) *)

let e3 () =
  section "E3  Popular-content reachability (Section 4.1, Alexa experiment)";
  let c = Lazy.force world_ctx in
  let reach = Lazy.force reach_ctx in
  let rng = Rng.create 500 in
  let wl = Webworkload.generate ~rng c.world in
  let sites = wl.Webworkload.sites in
  let reachable_sites =
    List.filter
      (fun (s : Webworkload.site) ->
        Reachability.covers_addr reach s.Webworkload.addr)
      sites
  in
  paper_vs_measured ~label:"top sites fetched" ~paper:"500"
    ~measured:(string_of_int (List.length sites));
  paper_vs_measured ~label:"sites with peer routes" ~paper:"157 (31%)"
    ~measured:
      (Printf.sprintf "%d (%.0f%%)"
         (List.length reachable_sites)
         (100.0
         *. float_of_int (List.length reachable_sites)
         /. float_of_int (max 1 (List.length sites))));
  let total_res = Webworkload.total_resources wl in
  let fqdns = Webworkload.distinct_resource_fqdns wl in
  let addrs = Webworkload.distinct_resource_addrs wl in
  let covered =
    List.filter (fun a -> Reachability.covers_addr reach a) addrs
  in
  paper_vs_measured ~label:"embedded resources" ~paper:"49,776"
    ~measured:(string_of_int total_res);
  paper_vs_measured ~label:"distinct resource FQDNs" ~paper:"4,182"
    ~measured:(string_of_int (List.length fqdns));
  paper_vs_measured ~label:"distinct resource IPs" ~paper:"2,757"
    ~measured:(string_of_int (List.length addrs));
  paper_vs_measured ~label:"resource IPs with peer routes" ~paper:"1,055 (38%)"
    ~measured:
      (Printf.sprintf "%d (%.0f%%)"
         (List.length covered)
         (100.0
         *. float_of_int (List.length covered)
         /. float_of_int (max 1 (List.length addrs))))

(* ------------------------------------------------------------------ *)
(* F2: BGP table memory usage (Figure 2) *)

let f2 () =
  section "F2  BGP table memory vs prefixes and peers (Figure 2)";
  Printf.printf
    "  Modelled resident memory (MB), Quagga-calibrated (Fig. 2 axes):\n";
  (* 1M extends the grid an order of magnitude past the synthetic
     world, to the full-DFZ feed size the MRT bench loads for real. *)
  let xs = [ 15_625; 125_000; 250_000; 375_000; 500_000; 1_000_000 ] in
  let ns = [ 5; 10; 15; 20 ] in
  row "  %10s" "prefixes";
  List.iter (fun n -> row " %9s" (Printf.sprintf "%dpeers" n)) ns;
  row "\n";
  List.iter
    (fun x ->
      row "  %10d" x;
      List.iter
        (fun n ->
          let b = Memory.model_bytes ~peers:n ~prefixes_per_peer:x () in
          row " %9.0f" (float_of_int b /. 1048576.0))
        ns;
      row "\n")
    xs;
  Printf.printf
    "\n  Measured (Obj.reachable_words) on our actual RIB, 1/25 scale:\n";
  row "  %10s" "prefixes";
  List.iter (fun n -> row " %9s" (Printf.sprintf "%dpeers" n)) ns;
  row "\n";
  List.iter
    (fun x ->
      let scaled = x / 25 in
      row "  %10d" scaled;
      List.iter
        (fun n ->
          let rib = Memory.fill_rib ~peers:n ~prefixes_per_peer:scaled in
          let b = Memory.measured_bytes rib in
          row " %9.1f" (float_of_int b /. 1048576.0))
        ns;
      row "\n")
    [ 15_625; 62_500; 125_000 ];
  Printf.printf
    "  Shape check: linear in prefixes with a per-peer slope, as in Fig. 2.\n"

(* ------------------------------------------------------------------ *)
(* E4: HE backbone emulation (§4.2) *)

let e4 () =
  section "E4  Emulating Hurricane Electric's backbone (Section 4.2)";
  let engine = Engine.create ~seed:9 () in
  let fwd = Forwarder.create engine in
  let emu =
    Mininext.of_topology engine fwd ~asn:(Asn.of_int 6939)
      Topology_zoo.hurricane_electric
  in
  paper_vs_measured ~label:"PoPs emulated" ~paper:"24"
    ~measured:(string_of_int (Mininext.n_pops emu));
  Mininext.start emu;
  Engine.run ~until:120.0 engine;
  Printf.printf "  iBGP full mesh: %d sessions\n" (Mininext.n_ibgp_sessions emu);
  (* Each PoP originates a prefix, as in the paper. *)
  List.iteri
    (fun i p ->
      Mininext.originate_at emu (Mininext.pop_name p)
        (Prefix.make (Ipv4.of_octets 184 164 (224 + i) 0) 24))
    (Mininext.pops emu);
  let t_start = Engine.now engine in
  let converged target =
    List.for_all
      (fun p -> Mininext.routes_at emu (Mininext.pop_name p) >= target)
      (Mininext.pops emu)
  in
  let rec drive target deadline =
    if (not (converged target)) && Engine.now engine < deadline then begin
      Engine.run_for engine 1.0;
      drive target deadline
    end
  in
  drive 24 (t_start +. 600.0);
  paper_vs_measured ~label:"route propagation through emulated AS"
    ~paper:"works"
    ~measured:
      (Printf.sprintf "24 prefixes at every PoP in %.1f virtual s"
         (Engine.now engine -. t_start));
  (* AMS-IX feed: an external PEERING mux session at the Amsterdam PoP. *)
  let mux =
    Router.create engine ~asn:(Asn.of_int 47065)
      ~router_id:(Ipv4.of_string_exn "100.65.0.1") ()
  in
  let ams = Mininext.pop_exn emu "Amsterdam" in
  ignore
    (Router.connect engine
       (mux, Ipv4.of_string_exn "100.65.0.1")
       (Mininext.router ams, Mininext.loopback ams));
  Engine.run_for engine 10.0;
  let n_feed = 200 in
  for i = 0 to n_feed - 1 do
    Router.originate mux
      (Prefix.make (Ipv4.of_octets 20 (i / 256) (i mod 256) 0) 24)
  done;
  let t_feed = Engine.now engine in
  drive (24 + n_feed) (t_feed +. 600.0);
  paper_vs_measured ~label:"AMS-IX routes propagate into all PoPs"
    ~paper:"works"
    ~measured:
      (Printf.sprintf "%d routes at every PoP after %.1f virtual s"
         (24 + n_feed)
         (Engine.now engine -. t_feed));
  (* Routes flow back out: the mux learns every PoP prefix. *)
  let supply = Prefix.of_string_exn "184.164.192.0/18" in
  let back =
    List.length
      (List.filter
         (fun (p, _) -> Prefix.subsumes supply p)
         (Rib.best_routes (Router.rib mux)))
  in
  paper_vs_measured ~label:"emulated PoP prefixes exported to AMS-IX"
    ~paper:"works" ~measured:(Printf.sprintf "%d of 24" back);
  (* Dataplane: traffic from Seattle to an AMS-IX destination. *)
  Forwarder.add_node fwd "internet";
  Forwarder.add_address fwd "internet" (Ipv4.of_string_exn "20.0.0.1");
  Forwarder.set_route fwd "internet" (Prefix.of_string_exn "20.0.0.0/8")
    Fib.Local;
  Mininext.external_gateway emu ~pop:"Amsterdam"
    ~peer_addr:(Ipv4.of_string_exn "100.65.0.1")
    ~node:"internet";
  Mininext.sync_fibs emu;
  let delivered = ref 0 in
  Forwarder.on_deliver fwd "internet" (fun _ -> incr delivered);
  let seattle = Mininext.pop_exn emu "Seattle" in
  Forwarder.inject fwd
    ~at:(Mininext.node_id seattle)
    (Packet.make
       ~src:(Mininext.loopback seattle)
       ~dst:(Ipv4.of_string_exn "20.0.0.1")
       ());
  Engine.run_for engine 5.0;
  paper_vs_measured ~label:"traffic flows emulated PoP -> Internet"
    ~paper:"works"
    ~measured:(if !delivered = 1 then "delivered" else "FAILED");
  (* Memory footprint: the paper ran this in 8 GB. *)
  let model_gb =
    float_of_int (Mininext.container_model_bytes emu) /. 1073741824.0
  in
  let measured_mb =
    float_of_int (Mininext.memory_words emu * (Sys.word_size / 8))
    /. 1048576.0
  in
  paper_vs_measured ~label:"memory footprint" ~paper:"<8 GB (desktop)"
    ~measured:
      (Printf.sprintf "%.2f GB modelled, %.1f MB actual OCaml RIBs" model_gb
         measured_mb)

(* ------------------------------------------------------------------ *)
(* T1: testbed capability matrix (Table 1) *)

let t1 () =
  section "T1  Testbed capability matrix (Table 1)";
  print_string (Capability.render ());
  Printf.printf "\n";
  paper_vs_measured ~label:"PEERING meets all six goals" ~paper:"yes"
    ~measured:(if Capability.peering_meets_all () then "yes" else "NO");
  paper_vs_measured ~label:"pairs of other testbeds covering all goals"
    ~paper:"none"
    ~measured:
      (match Capability.combinations_covering_all () with
      | [] -> "none"
      | l -> Printf.sprintf "%d pairs (!)" (List.length l))

(* ------------------------------------------------------------------ *)
(* A1: route server vs bilateral-only connectivity *)

let a1 () =
  section "A1  Ablation: route server vs bilateral-only peering";
  let c = Lazy.force world_ctx in
  let coverage peers =
    let r = Reachability.peer_routes ~selective:77 c.world ~peers in
    (List.length peers, Reachability.n_prefixes r)
  in
  let n_all, cov_all = coverage c.peers in
  let n_bi, cov_bi = coverage c.bilateral in
  let n_rs, cov_rs = coverage c.rs_peers in
  row "  %-28s %10s %16s\n" "configuration" "peers" "prefixes";
  row "  %-28s %10d %16d\n" "route server + bilateral" n_all cov_all;
  row "  %-28s %10d %16d\n" "route server only" n_rs cov_rs;
  row "  %-28s %10d %16d\n" "bilateral only (no RS)" n_bi cov_bi;
  Printf.printf
    "  The route server supplies %.0f%% of all peers instantly -- the\n\
    \  paper's 'instantly established peering with hundreds of ASes'.\n"
    (100.0 *. float_of_int n_rs /. float_of_int (max 1 n_all))

(* ------------------------------------------------------------------ *)
(* A2: per-peer sessions (Quagga) vs ADD-PATH mux (BIRD) *)

let a2 () =
  section "A2  Ablation: session multiplexing (Quagga per-peer vs BIRD ADD-PATH)";
  let engine = Engine.create () in
  let safety =
    Safety.create ~peering_asn:(Asn.of_int 47065) ~owns:(fun _ -> true) ()
  in
  let n_peers = 554 in
  row "  %-10s %8s %18s %18s %12s\n" "clients" "peers" "sessions(quagga)"
    "sessions(bird)" "mem ratio";
  List.iter
    (fun n_clients ->
      let mk mux =
        let s =
          Server.create engine ~name:"bench" ~asn:(Asn.of_int 47065) ~safety
            ~mux ~export:(fun _ -> ()) ()
        in
        for i = 1 to n_peers do
          Server.add_peer s ~kind:Server.Route_server_peer
            (Asn.of_int (1000 + i))
        done;
        for i = 1 to n_clients do
          let experiment =
            Experiment.make
              ~id:(Printf.sprintf "a2-%d-%d" n_clients i)
              ~owner:"bench"
              ~description:"session multiplexing ablation experiment" ()
          in
          experiment.Experiment.status <- Experiment.Active;
          Server.connect_client s ~experiment (Printf.sprintf "c%d" i)
        done;
        Server.session_stats s
      in
      let q = mk Server.Per_peer_sessions in
      let b = mk Server.Add_path_mux in
      row "  %-10d %8d %18d %18d %11.1fx\n" n_clients n_peers
        q.Server.total_sessions b.Server.total_sessions
        (float_of_int q.Server.est_memory_bytes
        /. float_of_int b.Server.est_memory_bytes))
    [ 1; 2; 5; 10; 20 ];
  Printf.printf
    "  Quagga 'cannot support large IXPs with many peers' (Section 3):\n\
    \  per-peer sessions scale as clients x peers; ADD-PATH keeps one\n\
    \  session per client.\n"

(* ------------------------------------------------------------------ *)
(* A3: safety filters on/off -- hijack containment *)

let a3 () =
  section "A3  Ablation: safety filters (hijack/leak containment)";
  let params =
    { Testbed.default_params with
      Testbed.world =
        { Gen.default_params with
          Gen.n_stub = 900;
          n_small_transit = 80;
          target_prefixes = 4000
        };
      university_sites = [ ("gatech01", 2) ]
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"a3" () with
    | Ok e -> e
    | Error e -> failwith e
  in
  let client = Client.create ~id:"a3-client" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let victim_origin = List.hd (Testbed.world t).Gen.stubs in
  let victim =
    List.hd (As_graph.prefixes_of (Testbed.graph t) victim_origin)
  in
  (* Legitimate state of the world. *)
  Testbed.inject_external t ~origin:victim_origin victim;
  let legit = Testbed.reach_count t victim in
  (* With safety: the client's hijack is refused at the server. *)
  let refused =
    match Client.announce client victim with
    | [ (_, Error Safety.Prefix_not_owned) ] -> true
    | _ -> false
  in
  row "  %-48s %s\n" "client hijack attempt WITH safety filters:"
    (if refused then "blocked at server" else "NOT BLOCKED");
  row "  %-48s %d of %d ASes\n" "  ASes still routing to the true origin:"
    (Testbed.reach_count t victim)
    legit;
  (* Without safety: model the same announcement escaping filtering. *)
  let attacker = List.nth (Testbed.world t).Gen.small_transit 3 in
  Testbed.inject_external t ~origin:attacker victim;
  (match Testbed.result_for t victim with
  | Some r ->
    let polluted =
      List.fold_left
        (fun acc (i, n) -> if i = 1 then acc + n else acc)
        0
        (Propagation.catchment r)
    in
    row "  %-48s %d ASes diverted\n"
      "same announcement WITHOUT safety filters:" polluted
  | None -> row "  (no result)\n");
  Printf.printf
    "  Outbound prefix/origin filters make client hijacks impossible; an\n\
    \  unfiltered AS making the same announcement pollutes much of the\n\
    \  Internet.\n"

(* ------------------------------------------------------------------ *)
(* A4: route-flap dampening on/off *)

let a4 () =
  section "A4  Ablation: route-flap dampening (client churn containment)";
  let flap_storm dampening =
    let safety =
      Safety.create ?dampening ~peering_asn:(Asn.of_int 47065)
        ~owns:(fun _ -> true) ()
    in
    let exp =
      Experiment.make ~id:"a4" ~owner:"bench"
        ~description:"dampening ablation flap storm experiment" ()
    in
    exp.Experiment.prefixes <- [ Prefix.of_string_exn "184.164.224.0/24" ];
    exp.Experiment.status <- Experiment.Active;
    let p = Prefix.of_string_exn "184.164.224.0/24" in
    let accepted = ref 0 and suppressed = ref 0 in
    for i = 0 to 99 do
      let now = float_of_int i *. 10.0 in
      (match
         Safety.check_announce safety ~now ~client:"flappy" ~experiment:exp
           ~prefix:p ~path_suffix:[]
       with
      | Ok () -> incr accepted
      | Error _ -> incr suppressed);
      Safety.note_withdraw safety ~now:(now +. 5.0) ~client:"flappy" ~prefix:p
    done;
    (!accepted, !suppressed)
  in
  let acc_on, sup_on = flap_storm None in
  let no_dampening =
    { Peering_bgp.Dampening.default_params with
      Peering_bgp.Dampening.suppress_threshold = infinity
    }
  in
  let acc_off, sup_off = flap_storm (Some no_dampening) in
  row "  %-36s %12s %12s\n" "configuration" "accepted" "suppressed";
  row "  %-36s %12d %12d\n" "dampening enabled (RFC 2439)" acc_on sup_on;
  row "  %-36s %12d %12d\n" "dampening disabled" acc_off sup_off;
  Printf.printf
    "  A client flapping every 10 s is cut off quickly: upstream peers see\n\
    \  %d control-plane events instead of %d.\n"
    (2 * acc_on) (2 * acc_off)

(* ------------------------------------------------------------------ *)
(* A5: remote peering expansion *)

let a5 () =
  section "A5  Ablation: remote peering expansion (Section 3, Hibernia model)";
  let t = Testbed.build () in
  let report label =
    let peers = Testbed.peers_at t "amsterdam01" in
    let r = Reachability.peer_routes ~selective:77 (Testbed.world t) ~peers in
    row "  %-26s %6d peers %10d prefixes (%.1f%%)\n" label (List.length peers)
      (Reachability.n_prefixes r)
      (100.0 *. Reachability.fraction_of_internet r (Testbed.world t))
  in
  report "AMS-IX only";
  List.iter
    (fun name ->
      ignore (Testbed.add_remote_ixp t ~via:"amsterdam01" ~name ());
      report (Printf.sprintf "+ %s (remote)" name))
    [ "DE-CIX"; "LINX"; "France-IX"; "HKIX"; "Seattle-IX" ];
  Printf.printf
    "  Each remotely-peered IXP adds peers with no new physical server --\n\
    \  the paper's path to 'deploying servers at major IXPs and remotely\n\
    \  peering at smaller IXPs'.\n"

(* ------------------------------------------------------------------ *)
(* A6: secure-BGP (ROV) partial deployment *)

let a6 () =
  section
    "A6  Secure BGP in partial deployment (the Section 2 adoption study)";
  let params =
    { Testbed.default_params with
      Testbed.world =
        { Gen.default_params with
          Gen.n_stub = 900;
          n_small_transit = 80;
          target_prefixes = 4000
        };
      university_sites = [ ("gatech01", 2) ]
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"rov" () with
    | Ok e -> e
    | Error e -> failwith e
  in
  let client = Client.create ~id:"rov-victim" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let prefix = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client prefix);
  (* The victim registers a ROA for its prefix. *)
  let roas =
    Peering_bgp.Rpki.add_roa Peering_bgp.Rpki.empty ~prefix Testbed.peering_asn
  in
  let attacker = List.nth (Testbed.world t).Gen.small_transit 3 in
  Testbed.inject_external t ~origin:attacker prefix;
  let all_ases = Array.of_list (As_graph.ases (Testbed.graph t)) in
  let rng = Rng.create 4242 in
  Rng.shuffle rng all_ases;
  let n = Array.length all_ases in
  row "  %-12s %14s %14s %10s\n" "ROV adoption" "hijacked ASes" "victim keeps"
    "hijack %";
  List.iter
    (fun fraction ->
      let n_adopt = int_of_float (fraction *. float_of_int n) in
      let adopters =
        Asn.Set.of_list (Array.to_list (Array.sub all_ases 0 n_adopt))
      in
      Testbed.set_rov t ~roas ~adopters;
      match Testbed.result_for t prefix with
      | None -> row "  (no result)\n"
      | Some r ->
        (* An AS is hijacked when its traffic terminates at the
           attacker instead of entering a PEERING site. *)
        let reachable = Propagation.reachable r in
        let stolen, kept =
          List.fold_left
            (fun (s, k) asn ->
              if Asn.equal asn attacker then (s, k)
              else
                match Testbed.ingress_site t ~from_asn:asn prefix with
                | Some _ -> (s, k + 1)
                | None -> (s + 1, k))
            (0, 0) reachable
        in
        row "  %10.0f%% %14d %14d %9.1f%%\n" (100.0 *. fraction) stolen kept
          (100.0 *. float_of_int stolen /. float_of_int (max 1 (stolen + kept))))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Testbed.clear_rov t;
  Testbed.retract_external t ~origin:attacker prefix;
  Printf.printf
    "  Partial ROV deployment gives partial protection; adopters protect\n\
    \  themselves and their customers, but non-adopters stay hijackable --\n\
    \  the 'is the juice worth the squeeze' shape the Section 2 study\n\
    \  design targets.\n"

(* ------------------------------------------------------------------ *)
(* CHAOS: fault drills, recovery SLOs, blast radius *)

let chaos () =
  section
    "CHAOS  Fault drills: compound faults on the testbed, single faults on \
     a wire";
  let module Campaign = Peering_fault.Campaign in
  let r = Campaign.run ~seed:42 () in
  List.iter
    (fun (o : Campaign.outcome) ->
      paper_vs_measured
        ~label:(Printf.sprintf "%s drill recovers" o.Campaign.drill)
        ~paper:"yes, zero routes lost"
        ~measured:
          (if o.Campaign.reconverged then
             Printf.sprintf "yes in %.2f virtual s, %d lost"
               o.Campaign.recovery_s o.Campaign.routes_lost
           else Printf.sprintf "STUCK (%d lost)" o.Campaign.routes_lost);
      Printf.printf "    blast: sites [%s], %d trace spans, %d reach dips\n"
        (String.concat "; " o.Campaign.blast.Campaign.impacted_sites)
        o.Campaign.blast.Campaign.trace_spans
        (List.length o.Campaign.blast.Campaign.reach_dips))
    r.Campaign.outcomes;
  List.iter
    (fun (v : Campaign.slo_verdict) ->
      paper_vs_measured
        ~label:(Printf.sprintf "p99 recovery (%s)" v.Campaign.verdict_class)
        ~paper:(Printf.sprintf "<= %.0fs budget" v.Campaign.budget_s)
        ~measured:
          (Printf.sprintf "%.2fs over %d samples%s" v.Campaign.p99_s
             v.Campaign.samples
             (if v.Campaign.met then "" else " (MISSED)")))
    r.Campaign.slos;
  paper_vs_measured ~label:"campaign verdict" ~paper:"passed"
    ~measured:(if r.Campaign.passed then "passed" else "FAILED")

(* ------------------------------------------------------------------ *)
(* PROP: valley-free propagation cost and incremental repair *)

let prop () =
  section "PROP  Propagation on the ~45K-AS world (E2/E3's engine cost)";
  let c = Lazy.force world_ctx in
  let g = c.world.Gen.graph in
  let origin = List.hd c.world.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of g origin) in
  let anns = [ Propagation.announce origin p ] in
  Printf.printf
    "  one announcement propagated over %d ASes / %d edges; wall time is\n\
    \  the best of 3 runs\n"
    (As_graph.n_ases g) (As_graph.n_edges g);
  let timed f =
    let best = ref infinity and result = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    match !result with
    | Some r -> (r, !best)
    | None -> assert false
  in
  let digest r =
    Digest.to_hex (Digest.string (Marshal.to_string (Propagation.table r) []))
  in
  let base_r, base_t = timed (fun () -> Propagation.propagate g anns) in
  paper_vs_measured ~label:"propagation wall time" ~paper:"n/a"
    ~measured:(Printf.sprintf "%.1f ms" (1000.0 *. base_t));
  Printf.printf
    "  reachable: %d ASes; offers/adoptions are in the metrics snapshot\n\
    \  (topo.propagation.*).\n"
    (Propagation.reachable_count base_r);
  (* Incremental repair: fail a seeded tier-1 or large transit AS and
     repair a live table in place, against propagating from scratch.
     Each timed run fails the AS; an untimed repair restores it. *)
  let victim =
    Rng.choice (Rng.create 14)
      (Array.of_list (c.world.Gen.tier1 @ c.world.Gen.large_transit))
  in
  let down = Asn.Set.singleton victim and toggled = Asn.Set.singleton victim in
  let full_r, full_t = timed (fun () -> Propagation.propagate ~down g anns) in
  let live = Propagation.propagate g anns in
  let repair_t = ref infinity and repaired_digest = ref "" in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    Propagation.repair ~down g anns live ~toggled;
    repair_t := Float.min !repair_t (Unix.gettimeofday () -. t0);
    repaired_digest := digest live;
    Propagation.repair ~down:Asn.Set.empty g anns live ~toggled
  done;
  let repair_t = !repair_t in
  let changed =
    List.sort_uniq Asn.compare
      (Propagation.reachable base_r @ Propagation.reachable full_r)
    |> List.filter (fun a ->
           Propagation.route_at base_r a <> Propagation.route_at full_r a)
    |> List.length
  in
  paper_vs_measured
    ~label:(Printf.sprintf "repair after failing %s" (Asn.to_string victim))
    ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%.2f ms vs %.1f ms full (%.0fx), %d entries changed"
         (1000.0 *. repair_t) (1000.0 *. full_t) (full_t /. repair_t) changed);
  paper_vs_measured ~label:"repaired table byte-identical to full propagate"
    ~paper:"byte-identical"
    ~measured:(if !repaired_digest = digest full_r then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* MRT: the wire hot path — decode throughput, cursor vs eager, and
   the 1M-prefix / 20-peer mux load of the ISSUE's F2 extension.
   Wall-clock rows here are volatile by nature, like PROP's. *)

module Mrt = Peering_measure.Mrt
module Wire = Peering_bgp.Wire

(* Peak RSS as the kernel saw it; unlike GC stats this includes the
   decode buffers. Process-wide, so when several experiments run it
   reflects the largest of them. *)
let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> Some (float_of_int kb /. 1024.0))
        end
        else go ()
      | exception End_of_file ->
        close_in ic;
        None
    in
    go ()
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ -> None

let mrt () =
  section "MRT  RFC 6396 ingest: decode throughput and 1M-prefix mux load";
  let n_prefixes =
    match Sys.getenv_opt "MRT_BENCH_PREFIXES" with
    | Some s -> int_of_string s
    | None -> 1_000_000
  in
  let n_peers = 20 in
  let peers = Mrt.make_peers ~n:n_peers in
  (* Generate a TABLE_DUMP_V2 dump, streamed straight into one buffer
     (records are never materialized as a list). *)
  let t0 = Unix.gettimeofday () in
  let buf = Buffer.create (64 * 1024 * 1024) in
  Mrt.iter_synthetic_rib ~peers ~n_prefixes (fun r -> Mrt.encode_record buf r);
  let dump = Buffer.to_bytes buf in
  let gen_t = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  dump: %d prefixes sharded over %d peers, %.1f MB (generated in %.1fs)\n"
    n_prefixes n_peers
    (float_of_int (Bytes.length dump) /. 1048576.0)
    gen_t;
  paper_vs_measured ~label:"RIB dump size"
    ~paper:"~1M prefixes (full DFZ feed, §2)"
    ~measured:
      (Printf.sprintf "%d prefixes, %.1f MB" n_prefixes
         (float_of_int (Bytes.length dump) /. 1048576.0));
  (* Pass 1: streaming decode, nothing retained. *)
  let t0 = Unix.gettimeofday () in
  (match
     Mrt.fold dump ~init:(0, 0) ~f:(fun (r, e) t ->
         match t.Mrt.record with
         | Mrt.Rib_v4 { entries; _ } -> (r + 1, e + List.length entries)
         | _ -> (r + 1, e))
   with
  | Error e -> failwith (Mrt.error_to_string e)
  | Ok (records, entries) ->
    let dt = Unix.gettimeofday () -. t0 in
    paper_vs_measured ~label:"MRT decode throughput" ~paper:"n/a"
      ~measured:
        (Printf.sprintf "%.0fk records/s (%d records, %d entries, %.1fs)"
           (float_of_int records /. dt /. 1000.0)
           records entries dt));
  (* Pass 2: load into a mux-style table (per-peer Adj-RIBs-In feeding
     a Loc-RIB through the decision process). *)
  let t0 = Unix.gettimeofday () in
  (match Mrt.load dump with
  | Error e -> failwith (Mrt.error_to_string e)
  | Ok l ->
    let dt = Unix.gettimeofday () -. t0 in
    let model_mb =
      float_of_int
        (Memory.model_bytes ~peers:n_peers
           ~prefixes_per_peer:(n_prefixes / n_peers) ())
      /. 1048576.0
    in
    let rib_mb =
      float_of_int (Memory.measured_bytes l.Mrt.rib) /. 1048576.0
    in
    paper_vs_measured
      ~label:
        (Printf.sprintf "mux load: %dk prefixes into %d peers"
           (n_prefixes / 1000) n_peers)
      ~paper:"tables are the mux scaling wall (Fig. 2)"
      ~measured:
        (Printf.sprintf "%d routes in %.1fs (%.0fk routes/s)" l.Mrt.routes4
           dt
           (float_of_int l.Mrt.routes4 /. dt /. 1000.0));
    paper_vs_measured ~label:"table memory after load"
      ~paper:(Printf.sprintf "Fig. 2 model: %.0f MB" model_mb)
      ~measured:(Printf.sprintf "%.0f MB (Obj.reachable_words)" rib_mb);
    let gc_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * Sys.word_size / 8)
      /. 1048576.0
    in
    (match vm_hwm_mb () with
    | Some hwm ->
      paper_vs_measured ~label:"peak RSS (VmHWM, process-wide)"
        ~paper:"n/a"
        ~measured:
          (Printf.sprintf "%.0f MB (GC top heap %.0f MB)" hwm gc_mb)
    | None ->
      paper_vs_measured ~label:"peak heap (GC top_heap_words)" ~paper:"n/a"
        ~measured:(Printf.sprintf "%.0f MB" gc_mb)));
  (* Pass 3: cursor vs eager on a plain BGP UPDATE stream — the
     session hot path, without MRT framing. *)
  let n_msgs = min 200_000 (max 1 n_prefixes) in
  let opts = Wire.{ four_octet_asn = true; add_path = false } in
  let sb = Buffer.create (64 * n_msgs) in
  for i = 0 to n_msgs - 1 do
    let attrs =
      Peering_bgp.Attrs.make
        ~as_path:
          (Peering_bgp.As_path.of_asns
             [ Asn.of_int (64500 + (i mod 20));
               Asn.of_int (64000 + (i mod 37));
               Asn.of_int (65000 + (i mod 997))
             ])
        ~next_hop:(Ipv4.of_int (0x0A010001 + (i mod 20)))
        ()
    in
    let p = Prefix.make (Ipv4.of_int (0x0400_0000 lor (i lsl 10))) 22 in
    Buffer.add_bytes sb
      (Wire.encode opts
         (Peering_bgp.Message.update_of_announce p attrs))
  done;
  let stream = Buffer.to_bytes sb in
  let walk decode =
    let t0 = Unix.gettimeofday () in
    let n = ref 0 and pos = ref 0 in
    let total = Bytes.length stream in
    while !pos < total do
      match decode opts stream ~pos:!pos with
      | Ok (_, next) ->
        incr n;
        pos := next
      | Error e -> failwith (Wire.error_to_string e)
    done;
    (!n, Unix.gettimeofday () -. t0)
  in
  let n_cursor, t_cursor = walk Wire.decode in
  let n_eager, t_eager = walk Wire.decode_eager in
  assert (n_cursor = n_eager);
  paper_vs_measured ~label:"UPDATE decode, cursor path" ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%.0fk msgs/s (%d msgs, %.2fs)"
         (float_of_int n_cursor /. t_cursor /. 1000.0)
         n_cursor t_cursor);
  paper_vs_measured ~label:"UPDATE decode, eager reference" ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%.0fk msgs/s (cursor is %.2fx)"
         (float_of_int n_eager /. t_eager /. 1000.0)
         (t_eager /. t_cursor))

(* ------------------------------------------------------------------ *)
(* BMP: telemetry-plane throughput. One synthetic full-table feed —
   Route Monitoring announces sharded over the mux's peers, the same
   1M-prefix / 20-peer load the MRT experiment uses — is first encoded
   (the mux's export path) and then pushed through a live
   Peering_measure.Monitor in transport-sized chunks (the station's
   ingest + reconstruction path). Scale with BMP_BENCH_PREFIXES. *)

module Bmp = Peering_bgp.Bmp
module Monitor = Peering_measure.Monitor

let bmp () =
  section "BMP  RFC 7854 telemetry: export and ingest throughput";
  let n_prefixes =
    match Sys.getenv_opt "BMP_BENCH_PREFIXES" with
    | Some s -> int_of_string s
    | None -> 1_000_000
  in
  let n_peers = 20 in
  let peer_hdr i =
    Bmp.make_peer_header
      ~addr:(Ipv4.of_int (0x0A000001 + i))
      ~asn:(Asn.of_int (64500 + i))
      ~time:(1.0 +. (0.001 *. float_of_int i))
      ()
  in
  let hdrs = Array.init n_peers peer_hdr in
  let msg_of i =
    let attrs =
      Peering_bgp.Attrs.make
        ~as_path:
          (Peering_bgp.As_path.of_asns
             [ Asn.of_int (64500 + (i mod n_peers));
               Asn.of_int (64000 + (i mod 37));
               Asn.of_int (65000 + (i mod 997))
             ])
        ~next_hop:(Ipv4.of_int (0x0A010001 + (i mod n_peers)))
        ()
    in
    let p = Prefix.make (Ipv4.of_int (0x0400_0000 lor (i lsl 10))) 22 in
    Bmp.Route_monitoring
      { peer = hdrs.(i mod n_peers);
        update =
          { Peering_bgp.Message.withdrawn = [];
            attrs = Some attrs;
            nlri = [ (0, p) ]
          }
      }
  in
  (* Export path: per-message encode, streamed into one buffer. *)
  let t0 = Unix.gettimeofday () in
  let buf = Buffer.create (64 * 1024 * 1024) in
  for i = 0 to n_prefixes - 1 do
    Buffer.add_bytes buf (Bmp.encode (msg_of i))
  done;
  let feed = Buffer.to_bytes buf in
  let t_enc = Unix.gettimeofday () -. t0 in
  paper_vs_measured ~label:"BMP export (encode)" ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%.0fk msgs/s (%d msgs, %.1f MB, %.2fs)"
         (float_of_int n_prefixes /. t_enc /. 1000.0)
         n_prefixes
         (float_of_int (Bytes.length feed) /. 1048576.0)
         t_enc);
  (* Ingest path: the station reassembles frames from transport-sized
     chunks and rebuilds the per-peer Adj-RIBs-In as it goes. *)
  let mon = Monitor.create () in
  let chunk = 64 * 1024 in
  let total = Bytes.length feed in
  let t0 = Unix.gettimeofday () in
  let pos = ref 0 in
  while !pos < total do
    let len = min chunk (total - !pos) in
    Monitor.feed mon ~mux:"bench" (Bytes.sub feed !pos len);
    pos := !pos + len
  done;
  let t_ing = Unix.gettimeofday () -. t0 in
  if Monitor.messages mon <> n_prefixes then
    failwith "bmp bench: station lost messages";
  if Monitor.parse_errors mon <> 0 then
    failwith "bmp bench: parse errors in a clean feed";
  paper_vs_measured ~label:"BMP ingest (decode + rebuild)" ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%.0fk msgs/s (%d routes reconstructed, %.2fs)"
         (float_of_int n_prefixes /. t_ing /. 1000.0)
         (Monitor.route_count mon ~mux:"bench")
         t_ing);
  (* Reconstruction lag: how far the station runs behind a mux
     replaying its full table flat out — the catch-up time for the
     whole feed, and per message. *)
  paper_vs_measured ~label:"reconstruction lag, full-table replay"
    ~paper:"station must keep up with the mux (§3 monitoring)"
    ~measured:
      (Printf.sprintf "%.2fs behind a %.2fs export (%.2f us/msg)"
         t_ing t_enc
         (t_ing /. float_of_int n_prefixes *. 1e6));
  let gc_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * Sys.word_size / 8)
    /. 1048576.0
  in
  match vm_hwm_mb () with
  | Some hwm ->
    paper_vs_measured ~label:"peak RSS (VmHWM, process-wide)" ~paper:"n/a"
      ~measured:(Printf.sprintf "%.0f MB (GC top heap %.0f MB)" hwm gc_mb)
  | None ->
    paper_vs_measured ~label:"peak heap (GC top_heap_words)" ~paper:"n/a"
      ~measured:(Printf.sprintf "%.0f MB" gc_mb)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let bechamel () =
  section "Microbenchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let test_rib =
    Test.make ~name:"rib-fill-1k-routes"
      (Staged.stage (fun () ->
           ignore (Memory.fill_rib ~peers:1 ~prefixes_per_peer:1000)))
  in
  let lookup_rib = Memory.fill_rib ~peers:1 ~prefixes_per_peer:10_000 in
  let test_lpm =
    Test.make ~name:"rib-lpm-lookup"
      (Staged.stage (fun () ->
           ignore (Rib.lookup lookup_rib (Ipv4.of_octets 80 0 39 5))))
  in
  let attrs =
    Peering_bgp.Attrs.make
      ~as_path:
        (Peering_bgp.As_path.of_asns [ Asn.of_int 47065; Asn.of_int 3356 ])
      ~next_hop:(Ipv4.of_octets 10 0 0 1) ()
  in
  let msg =
    Peering_bgp.Message.update_of_announce
      (Prefix.of_string_exn "184.164.224.0/24")
      attrs
  in
  let opts = Peering_bgp.Wire.default_opts in
  let test_wire =
    Test.make ~name:"wire-encode-decode"
      (Staged.stage (fun () ->
           ignore
             (Peering_bgp.Wire.decode_exn opts
                (Peering_bgp.Wire.encode opts msg))))
  in
  let w =
    Gen.generate
      { Gen.default_params with Gen.n_stub = 500; target_prefixes = 2000 }
  in
  let origin = List.hd w.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of w.Gen.graph origin) in
  let test_prop =
    Test.make ~name:"propagate-~900as"
      (Staged.stage (fun () ->
           ignore
             (Propagation.propagate w.Gen.graph
                [ Propagation.announce origin p ])))
  in
  let tests = [ test_rib; test_lpm; test_wire; test_prop ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-24s %14.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* SCHED: the multi-tenant scheduler at testbed scale — 100+ concurrent
   experiments on the default testbed, sustained update throughput
   through the fair-share batcher, p99 convergence under a skewed
   (chatty-tenant) load, and the isolation oracle. The default /19
   holds only 32 /24 leases, so the run donates the paper's §3 extra
   prefixes to the pool first. *)

module Scheduler = Peering_core.Scheduler
module Sched_stats = Peering_measure.Stats

let sched () =
  section
    "SCHED  Multi-tenant scheduler: 100+ concurrent experiments, fair-share \
     batching";
  let n_tenants =
    match Sys.getenv_opt "SCHED_BENCH_TENANTS" with
    | Some s -> int_of_string s
    | None -> 120
  in
  let tb = Testbed.build () in
  let eng = Testbed.engine tb in
  let rng = Rng.create 0x5ced in
  let sched =
    Scheduler.create ~vet:Peering_check.Admission.vet ~quota:4
      ~round_interval:0.5
      ~extra_supply:
        [ Prefix.of_string_exn "184.164.192.0/19";
          Prefix.of_string_exn "184.164.128.0/18";
          Prefix.of_string_exn "184.164.0.0/17"
        ]
      tb
  in
  let site_names = List.map Testbed.site_name (Testbed.sites tb) in
  (* admission: every proposal runs the full Check.check_specs XEXP
     passes against all already-running tenants *)
  let t0 = Unix.gettimeofday () in
  let admitted = ref 0 in
  for i = 0 to n_tenants - 1 do
    let sites =
      if Rng.bernoulli rng 0.5 then []
      else [ List.nth site_names (Rng.int rng (List.length site_names)) ]
    in
    let p = Scheduler.proposal ~sites (Printf.sprintf "tenant-%03d" i) in
    match Scheduler.admit sched p with
    | Scheduler.Admitted _ -> incr admitted
    | Scheduler.Rejected _ -> ()
  done;
  let admit_t = Unix.gettimeofday () -. t0 in
  paper_vs_measured ~label:"concurrent experiments admitted"
    ~paper:"100+ (paper §3)"
    ~measured:(Printf.sprintf "%d/%d in %.2fs wall" !admitted n_tenants admit_t);
  let tenants = Scheduler.tenants sched in
  let lease_of t = List.hd (Scheduler.leased_prefixes sched t) in
  (* sustained update throughput: an initial full-fanout announce wave,
     then re-announce waves with alternating path suffixes (no
     withdraw flaps, so the dampening filter stays out of the way),
     then one single-site withdraw / re-announce churn wave *)
  let ops = ref 0 in
  let req = function
    | Ok () -> incr ops
    | Error e -> failwith ("sched bench: request refused: " ^ e)
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun t -> req (Scheduler.request_announce sched ~tenant:t (lease_of t)))
    tenants;
  ignore (Scheduler.pump sched);
  for wave = 1 to 6 do
    List.iter
      (fun t ->
        let suffix =
          if wave mod 2 = 0 then []
          else
            match Scheduler.client sched t with
            | Some c -> (Client.experiment c).Experiment.private_asns
            | None -> []
        in
        req
          (Scheduler.request_announce sched ~tenant:t ~path_suffix:suffix
             (lease_of t)))
      tenants;
    ignore (Scheduler.pump sched)
  done;
  List.iter
    (fun t ->
      let site = List.hd site_names in
      req (Scheduler.request_withdraw sched ~tenant:t ~sites:[ site ] (lease_of t));
      req (Scheduler.request_announce sched ~tenant:t ~sites:[ site ] (lease_of t)))
    tenants;
  ignore (Scheduler.pump sched);
  let drive_t = Unix.gettimeofday () -. t0 in
  paper_vs_measured ~label:"sustained announce/withdraw throughput"
    ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%d ops in %.2fs wall (%.0f ops/s, %d rounds)" !ops
         drive_t
         (float_of_int !ops /. drive_t)
         (Scheduler.rounds_run sched));
  (* p99 convergence under a skewed load: every tenant queues one
     update, ten chatty tenants queue 24 each; the engine fires the
     batching rounds on the virtual clock, so convergence is the
     fair-share queueing delay *)
  List.iter
    (fun t -> req (Scheduler.request_announce sched ~tenant:t (lease_of t)))
    tenants;
  List.iteri
    (fun i t ->
      if i < 10 then
        for _ = 1 to 24 do
          req (Scheduler.request_announce sched ~tenant:t (lease_of t))
        done)
    tenants;
  Engine.run_for eng 30.0;
  let convergence_samples =
    List.concat_map
      (fun (r : Peering_obs.Metrics.row) ->
        if Peering_obs.Metrics.row_name r = "core.sched.convergence_s" then
          match r.Peering_obs.Metrics.value with
          | Peering_obs.Metrics.Histogram_v { samples; _ } -> samples
          | _ -> []
        else [])
      (Peering_obs.Metrics.snapshot ())
  in
  paper_vs_measured ~label:"p99 convergence (virtual s, skewed load)"
    ~paper:"bounded by fair share"
    ~measured:
      (Printf.sprintf "%.2fs over %d grants"
         (Sched_stats.percentile 99.0 convergence_samples)
         (List.length convergence_samples));
  paper_vs_measured ~label:"isolation violations at full load" ~paper:"0"
    ~measured:(string_of_int (Scheduler.isolation_violations sched));
  if Scheduler.isolation_violations sched > 0 then
    failwith "sched bench: isolation violation detected"

(* ------------------------------------------------------------------ *)

let all_experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("f2", f2); ("e4", e4); ("t1", t1);
    ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4); ("a5", a5); ("a6", a6);
    ("prop", prop); ("chaos", chaos);
    ("mrt", mrt); ("sched", sched); ("bmp", bmp) ]

module Json = Peering_obs.Json
module Metrics = Peering_obs.Metrics
module Obs_report = Peering_measure.Obs_report

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec extract_json acc = function
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | x :: rest -> extract_json (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, args = extract_json [] args in
  let want_bechamel = List.mem "--bechamel" args in
  let selected = List.filter (fun a -> a <> "--bechamel") args in
  let to_run =
    if selected = [] then all_experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s\n" name;
            None)
        selected
  in
  Printf.printf "PEERING reproduction benchmark harness\n";
  collect_rows := json_file <> None;
  (* Stream the artifact row by row with the incremental writer instead
     of accumulating the whole document tree: a long run flushes each
     experiment as it finishes and never holds more than one
     experiment's rows in memory. The bytes are identical to the old
     whole-document emitter. *)
  let writer =
    match json_file with
    | None -> None
    | Some file ->
      let oc = open_out file in
      let w = Json.Writer.to_channel ~indent:2 oc in
      Json.Writer.begin_obj w;
      Json.Writer.key w "schema";
      Json.Writer.value w (Json.String "peering-bench/1");
      Json.Writer.key w "experiments";
      Json.Writer.begin_arr w;
      Some (file, oc, w)
  in
  List.iter
    (fun (name, f) ->
      Metrics.reset ();
      json_rows := [];
      f ();
      match writer with
      | None -> ()
      | Some (_, oc, w) ->
        Json.Writer.begin_obj w;
        Json.Writer.key w "id";
        Json.Writer.value w (Json.String name);
        Json.Writer.key w "rows";
        Json.Writer.begin_arr w;
        List.iter
          (fun (label, paper, measured) ->
            Json.Writer.value w
              (Json.Obj
                 [ ("label", Json.String label);
                   ("paper", Json.String paper);
                   ("measured", Json.String measured)
                 ]))
          (List.rev !json_rows);
        Json.Writer.end_arr w;
        (* Only the deterministic (non-volatile) metrics go into the
           artifact, so two identically-seeded runs are byte-identical;
           wall-clock figures stay on the human transcript. *)
        Json.Writer.key w "metrics";
        Json.Writer.value w (Obs_report.to_json ());
        Json.Writer.end_obj w;
        flush oc)
    to_run;
  (match writer with
  | None -> ()
  | Some (file, oc, w) ->
    Json.Writer.end_arr w;
    Json.Writer.end_obj w;
    Json.Writer.close w;
    output_char oc '\n';
    close_out oc;
    Printf.printf "\n[json] wrote %s\n" file);
  if want_bechamel then bechamel ();
  Printf.printf "\ndone.\n"
