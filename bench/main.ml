(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index). Run with no arguments for all
   experiments, or pass a subset of: e1 e2 e3 f2 e4 t1 a1..a6 chaos
   sched; an unknown name exits 2 before any experiment runs. Pass
   --json FILE to also write every paper-vs-measured row plus the
   metrics snapshot as a machine-readable artifact. Timing of the hot
   paths lives in perfbench/, not here. *)

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
module Stats = Peering_measure.Stats
module Mininext = Peering_emu.Mininext
module Forwarder = Peering_dataplane.Forwarder
module Fib = Peering_dataplane.Fib
module Packet = Peering_dataplane.Packet

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* Every paper-vs-measured row is also collected here for the --json
   artifact (newest first; the main loop drains it after each
   experiment). *)
let json_rows : (string * string * string) list ref = ref []

let paper_vs_measured ~label ~paper ~measured =
  json_rows := (label, paper, measured) :: !json_rows;
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
     let r = Reachability.peer_routes c.world ~peers:c.peers in
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
  let per_peer = Reachability.routes_per_peer c.world ~peers:c.peers in
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
  (* 1M extends the model an order of magnitude past the synthetic
     world, to full-DFZ feed size; the measured grid below stays at
     1/25 scale. *)
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
          let b = Memory.model_bytes ~peers:n ~prefixes_per_peer:x in
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
    let r = Reachability.peer_routes c.world ~peers in
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
          Server.add_peer s (Asn.of_int (1000 + i))
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

(* The mid-size testbed A3 and A6 share: a denser-than-default world
   with AMS-IX plus one university site. *)
let mid_testbed_params =
  { Testbed.default_params with
    Testbed.world =
      { Gen.default_params with
        Gen.n_stub = 900;
        n_small_transit = 80;
        target_prefixes = 4000
      };
    university_sites = [ ("gatech01", 2) ]
  }

let a3 () =
  section "A3  Ablation: safety filters (hijack/leak containment)";
  let t = Testbed.build ~params:mid_testbed_params () in
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
    let r = Reachability.peer_routes (Testbed.world t) ~peers in
    row "  %-26s %6d peers %10d prefixes (%.1f%%)\n" label (List.length peers)
      (Reachability.n_prefixes r)
      (100.0 *. Reachability.fraction_of_internet r (Testbed.world t))
  in
  report "AMS-IX only";
  List.iter
    (fun name ->
      ignore (Testbed.add_remote_ixp t ~via:"amsterdam01" ~name);
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
  let t = Testbed.build ~params:mid_testbed_params () in
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
    (fun (v : Stats.slo) ->
      paper_vs_measured
        ~label:(Printf.sprintf "p99 recovery (%s)" v.slo_name)
        ~paper:(Printf.sprintf "<= %.0fs budget" v.budget_s)
        ~measured:
          (Printf.sprintf "%.2fs over %d samples%s" v.p99_s v.samples
             (if v.met then "" else " (MISSED)")))
    r.Campaign.slos;
  paper_vs_measured ~label:"campaign verdict" ~paper:"passed"
    ~measured:(if r.Campaign.passed then "passed" else "FAILED")

(* ------------------------------------------------------------------ *)
(* SCHED: the multi-tenant scheduler at testbed scale — 120 concurrent
   experiments on the default testbed, sustained update load through
   the fair-share batcher, p99 convergence under a skewed
   (chatty-tenant) load, and the isolation oracle. The default /19
   holds only 32 /24 leases, so the run donates the paper's §3 extra
   prefixes to the pool first. Throughput timing is perfbench's job;
   every row here is a seeded count. *)

module Scheduler = Peering_core.Scheduler

let sched () =
  section
    "SCHED  Multi-tenant scheduler: 100+ concurrent experiments, fair-share \
     batching";
  let n_tenants = 120 in
  let tb = Testbed.build () in
  let eng = Testbed.engine tb in
  let rng = Rng.create 0x5ced in
  let sched =
    Scheduler.create ~round_interval:0.5
      ~extra_supply:
        [ Prefix.of_string_exn "184.164.192.0/19";
          Prefix.of_string_exn "184.164.128.0/18";
          Prefix.of_string_exn "184.164.0.0/17"
        ]
      tb
  in
  let site_names = List.map Testbed.site_name (Testbed.sites tb) in
  (* admission: every proposal is checked against all already-running
     tenants (prefix overlap, cross-tenant poisoning) *)
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
  paper_vs_measured ~label:"concurrent experiments admitted"
    ~paper:"100+ (paper §3)"
    ~measured:(Printf.sprintf "%d/%d" !admitted n_tenants);
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
  paper_vs_measured ~label:"sustained announce/withdraw throughput"
    ~paper:"n/a"
    ~measured:
      (Printf.sprintf "%d ops in %d rounds" !ops (Scheduler.rounds_run sched));
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
  let convergence_samples, _ =
    Peering_obs.Metrics.histogram_samples "core.sched.convergence_s"
  in
  paper_vs_measured ~label:"p99 convergence (virtual s, skewed load)"
    ~paper:"bounded by fair share"
    ~measured:
      (Printf.sprintf "%.2fs over %d grants"
         (Stats.percentile 99.0 convergence_samples)
         (List.length convergence_samples));
  paper_vs_measured ~label:"isolation violations at full load" ~paper:"0"
    ~measured:(string_of_int (Scheduler.isolation_violations sched));
  if Scheduler.isolation_violations sched > 0 then
    failwith "sched bench: isolation violation detected"

(* ------------------------------------------------------------------ *)

let all_experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("f2", f2); ("e4", e4); ("t1", t1);
    ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4); ("a5", a5); ("a6", a6);
    ("chaos", chaos); ("sched", sched) ]

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
  let json_file, selected = extract_json [] args in
  (match
     List.filter (fun a -> not (List.mem_assoc a all_experiments)) selected
   with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment %s (valid: %s)\n"
      (String.concat ", " unknown)
      (String.concat " " (List.map fst all_experiments));
    exit 2);
  let to_run =
    if selected = [] then all_experiments
    else List.map (fun name -> (name, List.assoc name all_experiments)) selected
  in
  (* Open the artifact before any experiment runs, so a bad path fails
     fast with exit 2 instead of an uncaught exception after a long
     run. [Sys_error] messages already read "<path>: <reason>". *)
  let json_oc =
    Option.map
      (fun file ->
        try (file, open_out_bin file)
        with Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2)
      json_file
  in
  Printf.printf "PEERING reproduction benchmark harness\n";
  let results =
    List.map
      (fun (name, f) ->
        Metrics.reset ();
        json_rows := [];
        f ();
        Json.Obj
          [ ("id", Json.String name);
            ( "rows",
              Json.List
                (List.rev_map
                   (fun (label, paper, measured) ->
                     Json.Obj
                       [ ("label", Json.String label);
                         ("paper", Json.String paper);
                         ("measured", Json.String measured)
                       ])
                   !json_rows) );
            (* Only the deterministic (non-volatile) metrics go into the
               artifact, so two identically-seeded runs are
               byte-identical; wall-clock figures stay on the human
               transcript. *)
            ("metrics", Obs_report.to_json ())
          ])
      to_run
  in
  Option.iter
    (fun (file, oc) ->
      output_string oc
        (Json.to_string ~indent:2
           (Json.Obj
              [ ("schema", Json.String "peering-bench/1");
                ("experiments", Json.List results)
              ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\n[json] wrote %s\n" file)
    json_oc;
  Printf.printf "\ndone.\n"
