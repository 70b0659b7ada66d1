(* The two testbed workloads. Both run the default PEERING testbed
   (5 sites, 8 experiments x 4 /24s = the whole /19, one client per
   experiment connected at every site):

   - [announce]: each op is one Client.announce of one prefix at every
     site, with full export or a seeded half of each site's peers.
     Propagation does almost all the work, one prefix per op.
   - [churn]: all 32 prefixes are announced in set-up; each op is one
     Testbed.set_down of a seeded transit AS, the next op restores it,
     and every op re-propagates every active prefix.

   The benchmark keeps its own model of the announcements Testbed
   holds for each prefix. It is the input of the Propagation.propagate_seq
   oracle the final tables are checked against, and of the traced
   run's replay: Propagation and Safety run inside Client.announce, so
   the traced run times them by calling their public functions again
   on the same inputs, outside the op. *)

open Peering_net
open Peering_topo
open Peering_core
module Rng = Peering_sim.Rng
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Collector = Peering_measure.Collector
open Harness

let params = { Testbed.default_params with Testbed.domains = Some 1 }

type bed = {
  tb : Testbed.t;
  owned : (Client.t * Prefix.t) array;  (** every allocated /24 and its client *)
  site_asn : Asn.t array;  (** each site's graph node, in site order *)
  site_peers : Asn.Set.t array;
}

let build_bed ~experiments =
  let tb = Testbed.build ~params () in
  let sites = Testbed.sites tb in
  let names = List.map Testbed.site_name sites in
  let owned =
    List.init experiments (fun i ->
        match
          Testbed.new_experiment tb ~id:(Printf.sprintf "bench%d" i) ~n_prefixes:4 ()
        with
        | Error e -> failwith ("perfbench: experiment refused: " ^ e)
        | Ok e ->
          let c = Client.create ~id:(Printf.sprintf "client%d" i) ~experiment:e () in
          Testbed.connect_client tb c ~sites:names;
          List.map (fun p -> (c, p)) e.Experiment.prefixes)
    |> List.concat |> Array.of_list
  in
  { tb;
    owned;
    site_asn = Array.of_list (List.map Testbed.site_asn sites);
    site_peers =
      Array.of_list
        (List.map
           (fun s -> Asn.Set.of_list (Server.peer_asns (Testbed.site_server s)))
           sites)
  }

let n_sites bed = Array.length bed.site_asn

(* The announcement Testbed derives from one site's export: the
   server intersects the requested peers with its own. *)
let site_ann bed site ?peers prefix =
  let targets =
    match peers with
    | None -> bed.site_peers.(site)
    | Some l -> Asn.Set.inter bed.site_peers.(site) (Asn.Set.of_list l)
  in
  Propagation.announce ~path_suffix:[] ~export_to:targets bed.site_asn.(site) prefix

(* Testbed's per-prefix announcement list: a site's re-export drops
   its old entry and appends the new one. Returns the list Testbed
   propagates at this step. *)
let model_step model prefix site ann =
  let cur = Option.value (Prefix.Map.find_opt prefix !model) ~default:[] in
  let cur = List.filter (fun (s, _) -> s <> site) cur @ [ (site, ann) ] in
  model := Prefix.Map.add prefix cur !model;
  List.map snd cur

let counter name = Metrics.counter_value name
let offers () = counter "topo.propagation.offers"
let adoptions () = counter "topo.propagation.adoptions"

(* ------------------------------------------------------------------ *)
(* Shared op accounting, reads and reporting. *)

type acc = {
  mutable ops : (int * int) list;  (** (ns, adoptions) per op, newest first *)
  gc : gc_counts ref;
  mutable op_offers : int;
  mutable op_adoptions : int;
  mutable refused : int;
  mutable bad : int;  (** failed output checks *)
  (* traced-run replay totals *)
  l_prop : layer;
  l_safety : layer;
  mutable rp_offers : int;
  mutable rp_adoptions : int;
  rp_gc : gc_counts ref;
  mutable reprop_prefixes : int;
}

let new_acc () =
  { ops = [];
    gc = ref gc_zero;
    op_offers = 0;
    op_adoptions = 0;
    refused = 0;
    bad = 0;
    l_prop = layer "propagation";
    l_safety = layer "safety";
    rp_offers = 0;
    rp_adoptions = 0;
    rp_gc = ref gc_zero;
    reprop_prefixes = 0
  }

(* One timed op: only [f] is on the clock; allocation and propagation
   counts are charged to the op. *)
let run_op acc f =
  let o0 = offers () and a0 = adoptions () in
  let r, ns = timed_op acc.gc f in
  acc.ops <- (ns, adoptions () - a0) :: acc.ops;
  acc.op_offers <- acc.op_offers + (offers () - o0);
  acc.op_adoptions <- acc.op_adoptions + (adoptions () - a0);
  r

(* Traced run: replay one propagation on the op's inputs. *)
let replay acc graph ?down anns =
  let o0 = offers () and a0 = adoptions () in
  let r, ns = timed_op acc.rp_gc (fun () -> Propagation.propagate ?down ~domains:1 graph anns) in
  credit acc.l_prop ~ns ~calls:1;
  acc.rp_offers <- acc.rp_offers + (offers () - o0);
  acc.rp_adoptions <- acc.rp_adoptions + (adoptions () - a0);
  r

let same_table tb prefix r =
  match Testbed.result_for tb prefix with
  | Some live -> Propagation.table live = Propagation.table r
  | None -> false

(* Catchment reads: which site traffic from a seeded AS enters for a
   seeded prefix. *)
let catchment_reads cfg bed rng hits =
  let ases = Array.of_list (As_graph.ases (Testbed.graph bed.tb)) in
  let prefixes = Array.map snd bed.owned in
  let q =
    Array.init (n_queries cfg) (fun _ -> (Rng.choice rng ases, Rng.choice rng prefixes))
  in
  reads cfg (fun i ->
      let from_asn, p = q.(i) in
      if Testbed.ingress_site bed.tb ~from_asn p <> None then incr hits)

let outcome cfg bed acc ~setup_s ~reads ~hits ~collector_entries =
  let read_ns = read_ns reads in
  let n = List.length acc.ops in
  let op_total = fi (List.fold_left (fun s (ns, _) -> s + ns) 0 acc.ops) in
  let per_op x = ratio x (fi n) in
  let calls = fi acc.l_prop.calls in
  let replayed = fi (acc.l_prop.self_ns + acc.l_safety.self_ns) in
  let layers =
    if not cfg.trace then []
    else
      [ ("propagation.calls_per_op", per_op calls);
        ("propagation.ms_per_call", ratio (fi acc.l_prop.self_ns *. 1e-6) calls);
        ("propagation.offers_per_call", ratio (fi acc.rp_offers) calls);
        ("propagation.adoptions_per_call", ratio (fi acc.rp_adoptions) calls);
        ("propagation.minor_words_per_call", ratio !(acc.rp_gc).minor calls);
        ("testbed.repropagations_per_op", per_op (fi acc.reprop_prefixes));
        ("testbed.self_ms_per_op", per_op ((op_total -. replayed) *. 1e-6));
        ("testbed.collector_entries_per_op", per_op (fi collector_entries));
        ( "safety.check_ns",
          ratio (fi acc.l_safety.self_ns) (fi acc.l_safety.calls) );
        ("safety.refusals", fi acc.refused);
        ("trace.attributed_share", ratio replayed op_total)
      ]
  in
  { setup_s;
    ops = acc.ops;
    read_ns;
    state_mb = reachable_mb bed;
    failed = acc.refused + acc.bad;
    layers =
      layers
      @ [ ("gc.minor_words_per_op", per_op !(acc.gc).minor);
          ("gc.promoted_words_per_op", per_op !(acc.gc).promoted);
          ("gc.major_collections", fi !(acc.gc).majors);
          ("trace.op_ms", per_op (op_total *. 1e-6))
        ];
    report =
      [ Printf.sprintf "propagation offers %d, adoptions %d over %d ops"
          acc.op_offers acc.op_adoptions n;
        Printf.sprintf "catchment reads answered by a site: %d" !hits
      ];
    centres =
      [ ("propagation", fi acc.l_prop.self_ns);
        ("safety", fi acc.l_safety.self_ns);
        ("testbed (client, server, collector)", op_total -. replayed)
      ]
  }

(* ------------------------------------------------------------------ *)
(* announce *)

type ann_op = { owner : int; peers : Asn.t list option }

let gen_ops bed rng n =
  Array.init n (fun _ ->
      let owner = Rng.int rng (Array.length bed.owned) in
      let peers =
        if Rng.bool rng then None
        else
          Some
            (Array.to_list bed.site_peers
            |> List.concat_map (fun set ->
                   let l = Asn.Set.elements set in
                   Rng.sample rng (max 1 (List.length l / 2)) l))
      in
      { owner; peers })

let announce cfg =
  let n_ops = op_count cfg ~per_s:30.0 ~tiny:6 in
  let (bed, ops, rng), setup_s =
    setup cfg ~reps:25 (fun () ->
        Metrics.reset ();
        let bed = build_bed ~experiments:8 in
        let rng = Rng.create cfg.seed in
        (bed, gen_ops bed rng n_ops, rng))
  in
  let graph = Testbed.graph bed.tb in
  let eng = Testbed.engine bed.tb in
  let replica =
    Safety.create ~peering_asn:Testbed.peering_asn
      ~owns:(Controller.owns (Testbed.controller bed.tb))
      ()
  in
  let model = ref Prefix.Map.empty in
  let acc = new_acc () in
  let log = span_log [ acc.l_prop; acc.l_safety ] in
  let entries0 = Collector.n_entries (Testbed.collector bed.tb) in
  let hits = ref 0 in
  let reads = catchment_reads cfg bed rng hits in
  Array.iteri
    (fun i op ->
      let client, prefix = bed.owned.(op.owner) in
      let results = run_op acc (fun () -> Client.announce client ?peers:op.peers prefix) in
      List.iter
        (fun (_, r) -> match r with Ok () -> () | Error _ -> acc.refused <- acc.refused + 1)
        results;
      let steps =
        List.init (n_sites bed) (fun s ->
            model_step model prefix s (site_ann bed s ?peers:op.peers prefix))
      in
      if cfg.trace then begin
        acc.reprop_prefixes <- acc.reprop_prefixes + 1;
        let last = List.fold_left (fun _ anns -> Some (replay acc graph anns)) None steps in
        (match last with
        | Some r when same_table bed.tb prefix r -> ()
        | _ -> acc.bad <- acc.bad + 1);
        (* Safety's check is sub-microsecond: time 100 rounds of the
           op's per-site calls on a replica and credit one round. *)
        let now = Engine.now eng in
        let reps = 100 in
        let (), ns =
          timed (fun () ->
              for _ = 1 to reps do
                for _ = 1 to n_sites bed do
                  ignore
                    (Safety.check_announce replica ~now ~client:(Client.id client)
                       ~experiment:(Client.experiment client) ~prefix ~path_suffix:[])
                done
              done)
        in
        credit acc.l_safety ~ns:(ns / reps) ~calls:(n_sites bed);
        end_op log i
      end;
      reads_after reads ~first:(n_ops / 2) ~n_ops i)
    ops;
  let entries = Collector.n_entries (Testbed.collector bed.tb) - entries0 in
  (* Oracle: every announced prefix's final table equals the
     sequential reference engine's on the modelled announcements. *)
  Prefix.Map.iter
    (fun prefix anns ->
      if not (same_table bed.tb prefix (Propagation.propagate_seq graph (List.map snd anns)))
      then acc.bad <- acc.bad + 1)
    !model;
  if cfg.trace then write_log cfg "announce" log;
  outcome cfg bed acc ~setup_s ~reads ~hits ~collector_entries:entries

(* ------------------------------------------------------------------ *)
(* churn *)

let churn cfg =
  let pairs = if cfg.tiny then 1 else max 1 (2 * cfg.seconds) in
  let (bed, downs, rng), setup_s =
    setup cfg ~reps:5 (fun () ->
        Metrics.reset ();
        let bed = build_bed ~experiments:(if cfg.tiny then 1 else 8) in
        Array.iter
          (fun (c, p) ->
            List.iter
              (fun (_, r) ->
                match r with
                | Ok () -> ()
                | Error e -> failwith ("perfbench: set-up refused: " ^ Safety.reason_to_string e))
              (Client.announce c p))
          bed.owned;
        let rng = Rng.create cfg.seed in
        let transit = Array.of_list (Gen.all_transit (Testbed.world bed.tb)) in
        (bed, Array.init pairs (fun _ -> Rng.choice rng transit), rng))
  in
  let graph = Testbed.graph bed.tb in
  let anns =
    Array.map
      (fun (_, p) -> (p, List.init (n_sites bed) (fun s -> site_ann bed s p)))
      bed.owned
  in
  let baseline = Array.map (fun (_, p) -> Testbed.reach_count bed.tb p) bed.owned in
  let acc = new_acc () in
  let log = span_log [ acc.l_prop ] in
  let down = ref Asn.Set.empty in
  let hits = ref 0 in
  let reads = catchment_reads cfg bed rng hits in
  let n_ops = 2 * pairs in
  Array.iteri
    (fun k asn ->
      List.iteri
        (fun j fail ->
          run_op acc (fun () -> Testbed.set_down bed.tb asn fail);
          down := if fail then Asn.Set.add asn !down else Asn.Set.remove asn !down;
          if not fail then
            (* zero routes lost once the AS is back *)
            Array.iteri
              (fun i (_, p) ->
                if Testbed.reach_count bed.tb p <> baseline.(i) then acc.bad <- acc.bad + 1)
              bed.owned;
          if cfg.trace then begin
            acc.reprop_prefixes <- acc.reprop_prefixes + Array.length anns;
            Array.iter
              (fun (p, l) ->
                if not (same_table bed.tb p (replay acc graph ~down:!down l)) then
                  acc.bad <- acc.bad + 1)
              anns;
            end_op log ((2 * k) + j)
          end;
          reads_after reads ~first:(n_ops / 2) ~n_ops ((2 * k) + j))
        [ true; false ])
    downs;
  if cfg.trace then write_log cfg "churn" log;
  outcome cfg bed acc ~setup_s ~reads ~hits ~collector_entries:0
