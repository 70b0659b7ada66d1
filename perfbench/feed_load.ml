(* The [feed] workload: the Amsterdam mux (604 peers) hears upstream
   routes and relays them. Its BMP sink feeds a Monitor, and one
   client is attached through Server.connect_client ~callbacks into a
   Rib, keyed per (mux, peer) the way Client keys its RIB.

   Each op is one upstream peer's burst of Server.learn_route calls:
   its customer cone's prefixes (at most 64). Peers take turns in a
   seeded order, one pass after another. From the second pass on,
   paths carry seeded prepends, and in every pass but the first and
   the last a seeded quarter of the bursts withdraw the peer's routes
   instead (Server.withdraw_learned); its next burst learns them
   again. The last pass learns everything, so the retained state has
   the same size for every seed.

   Server, Bmp, Monitor and Rib do the work; nothing propagates. The
   traced run wraps learn_route, the sink and the client callbacks in
   nested spans, so Server's self time excludes the other two. *)

open Peering_net
open Peering_topo
open Peering_bgp
open Peering_core
module Rng = Peering_sim.Rng
module Metrics = Peering_obs.Metrics
module Monitor = Peering_measure.Monitor
open Harness

let mux = "amsterdam01"
let max_per_peer = 64

type burst =
  | Learn of Asn.t * (Asn.t list * Prefix.t) array
  | Withdraw of Asn.t * Prefix.t array

type feed = {
  srv : Server.t;
  mon : Monitor.t;
  rib : Rib.t;
  msgs0 : int;  (** core.server.bmp_msgs when the sink was attached *)
  bursts : burst array;
  addrs : Ipv4.t array;  (** read queries *)
}

let bmp_msgs () = Metrics.counter_value ~labels:[ ("site", mux) ] "core.server.bmp_msgs"

(* The cone's prefixes a peer exports, as (path, prefix). *)
let exports graph peer =
  let out = ref [] and n = ref 0 in
  (try
     Asn.Set.iter
       (fun origin ->
         List.iter
           (fun prefix ->
             if !n >= max_per_peer then raise Exit;
             let path = if Asn.equal origin peer then [ peer ] else [ peer; origin ] in
             out := (path, prefix) :: !out;
             incr n)
           (As_graph.prefixes_of graph origin))
       (Customer_cone.cone graph peer)
   with Exit -> ());
  Array.of_list (List.rev !out)

let gen_bursts rng graph peers ~n_peers ~passes =
  let order = Array.of_list peers in
  Rng.shuffle rng order;
  let order = Array.sub order 0 (min n_peers (Array.length order)) in
  let routes = Array.map (exports graph) order in
  let learned = Array.make (Array.length order) false in
  Array.init (passes * Array.length order) (fun i ->
      let k = i mod Array.length order and pass = i / Array.length order in
      let peer = order.(k) in
      if pass > 0 && pass < passes - 1 && learned.(k) && Rng.int rng 4 = 0 then begin
        learned.(k) <- false;
        Withdraw (peer, Array.map snd routes.(k))
      end
      else begin
        learned.(k) <- true;
        let prepend = if pass = 0 then 0 else Rng.int rng 3 in
        Learn
          ( peer,
            Array.map
              (fun (path, p) -> (List.init prepend (fun _ -> peer) @ path, p))
              routes.(k) )
      end)

type spans = {
  l_server : layer;
  l_monitor : layer;
  l_rib : layer;
  mutable captured : bytes list;  (** BMP messages kept for the codec replay *)
  mutable n_captured : int;
}

let capture_cap = 4096

let build cfg sp ~n_peers ~passes =
  Metrics.reset ();
  let tb = Testbed.build ~params:Testbed_load.params () in
  let srv = Testbed.site_server (Testbed.site_exn tb mux) in
  let mon = Monitor.create () in
  let msgs0 = bmp_msgs () in
  let monitor_feed b = Monitor.feed mon ~mux b in
  let sink =
    if not cfg.trace then monitor_feed
    else fun b ->
      if sp.n_captured < capture_cap then begin
        sp.captured <- b :: sp.captured;
        sp.n_captured <- sp.n_captured + 1
      end;
      with_span sp.l_monitor (fun () -> monitor_feed b)
  in
  Server.set_bmp_sink srv (Some sink);
  let rib = Rib.create () in
  let keys = Hashtbl.create 1024 in
  List.iter
    (fun p -> Hashtbl.replace keys p (Printf.sprintf "%s/%s" mux (Asn.to_string p)))
    (Server.peer_asns srv);
  let key peer = Hashtbl.find keys peer in
  let on_update ~peer route = ignore (Rib.announce rib ~peer:(key peer) route) in
  let on_withdraw ~peer prefix = ignore (Rib.withdraw rib ~peer:(key peer) prefix) in
  let callbacks =
    if not cfg.trace then { Server.route_update = on_update; route_withdraw = on_withdraw }
    else
      { Server.route_update =
          (fun ~peer route -> with_span sp.l_rib (fun () -> on_update ~peer route));
        route_withdraw =
          (fun ~peer prefix -> with_span sp.l_rib (fun () -> on_withdraw ~peer prefix))
      }
  in
  let experiment =
    match Testbed.new_experiment tb ~id:"feed" () with
    | Ok e -> e
    | Error e -> failwith ("perfbench: experiment refused: " ^ e)
  in
  Server.connect_client srv ~experiment ~callbacks "bench";
  let rng = Rng.create cfg.seed in
  let bursts =
    gen_bursts rng (Testbed.graph tb) (Server.peer_asns srv) ~n_peers ~passes
  in
  let universe =
    Array.to_list bursts
    |> List.concat_map (function
         | Learn (_, r) -> Array.to_list (Array.map snd r)
         | Withdraw _ -> [])
    |> List.sort_uniq Prefix.compare |> Array.of_list
  in
  (* reads: addresses inside seeded learned prefixes *)
  let addrs =
    Array.init (n_queries cfg) (fun _ ->
        let p = Rng.choice rng universe in
        let host = Rng.int rng (1 lsl (32 - Prefix.len p)) in
        Ipv4.of_int (Ipv4.to_int (Prefix.addr p) lor host))
  in
  { srv; mon; rib; msgs0; bursts; addrs }

let run cfg =
  (* tiny: 3 passes over 40 peers; otherwise whole passes over all 604
     peers, about 1,800 ops per second of --seconds *)
  let n_peers = if cfg.tiny then 40 else max_int in
  let passes = if cfg.tiny then 3 else max 3 (3 * cfg.seconds) in
  let sp =
    { l_server = layer "server";
      l_monitor = layer "monitor";
      l_rib = layer "rib";
      captured = [];
      n_captured = 0
    }
  in
  let f, setup_s = setup cfg ~reps:15 (fun () -> build cfg sp ~n_peers ~passes) in
  let n_ops = Array.length f.bursts in
  let hits = ref 0 in
  let reads = reads cfg (fun i -> if Rib.lookup f.rib f.addrs.(i) <> None then incr hits) in
  (* set-up's BMP state sync is not op work *)
  List.iter (fun l -> l.total_ns <- 0; l.self_ns <- 0; l.calls <- 0)
    [ sp.l_server; sp.l_monitor; sp.l_rib ];
  sp.captured <- [];
  sp.n_captured <- 0;
  let log = span_log [ sp.l_server; sp.l_monitor; sp.l_rib ] in
  let learn peer (path, prefix) = Server.learn_route f.srv ~peer ~path prefix in
  let forget peer prefix = Server.withdraw_learned f.srv ~peer prefix in
  let learn, forget =
    if not cfg.trace then (learn, forget)
    else
      ( (fun peer r -> with_span sp.l_server (fun () -> learn peer r)),
        fun peer p -> with_span sp.l_server (fun () -> forget peer p) )
  in
  let ops = ref [] and routes = ref 0 and withdrawn = ref 0 in
  let msgs_before = Monitor.messages f.mon and bytes_before = Monitor.bytes_ingested f.mon in
  let announces0 = Metrics.counter_value "bgp.rib.announces"
  and loc0 = Metrics.counter_value "bgp.rib.loc_changes" in
  let gc = ref gc_zero in
  Array.iteri
    (fun i b ->
      let (), ns =
        timed_op gc (fun () ->
            match b with
            | Learn (peer, rs) -> Array.iter (learn peer) rs
            | Withdraw (peer, ps) -> Array.iter (forget peer) ps)
      in
      (match b with
      | Learn (_, rs) ->
        routes := !routes + Array.length rs;
        ops := (ns, Array.length rs) :: !ops
      | Withdraw (_, ps) ->
        withdrawn := !withdrawn + Array.length ps;
        ops := (ns, 0) :: !ops);
      if cfg.trace then end_op log i;
      reads_after reads ~first:(n_ops / 2) ~n_ops i)
    f.bursts;
  let msgs = Monitor.messages f.mon - msgs_before in
  let bytes = Monitor.bytes_ingested f.mon - bytes_before in
  let announces = Metrics.counter_value "bgp.rib.announces" - announces0 in
  let loc_changes = Metrics.counter_value "bgp.rib.loc_changes" - loc0 in
  (* Output checks: the station's rebuilt tables are byte-identical to
     the mux's, nothing was lost or unparsable, and the client RIB
     holds exactly the mux's routes. *)
  let bad =
    List.length
      (List.filter not
         [ Monitor.rib_digest f.mon ~mux = Server.rib_digest f.srv;
           Monitor.parse_errors f.mon = 0;
           Monitor.messages f.mon = bmp_msgs () - f.msgs0;
           Rib.route_count f.rib = Server.learned_route_count f.srv
         ])
  in
  let read_ns = read_ns reads in
  let n = List.length !ops in
  let op_total = fi (List.fold_left (fun s (ns, _) -> s + ns) 0 !ops) in
  let changes = !routes + !withdrawn in
  let layers =
    if not cfg.trace then []
    else begin
      write_log cfg "feed" log;
      (* BMP codec replay on captured messages: decode them all, then
         re-encode the decoded messages, each as one timed batch. *)
      let frames = Array.of_list (List.rev sp.captured) in
      let decoded, dec_ns =
        timed (fun () ->
            Array.map
              (fun b ->
                match Bmp.decode b ~pos:0 with
                | Ok (m, _) -> m
                | Error e -> failwith ("perfbench: replay decode: " ^ Bmp.error_to_string e))
              frames)
      in
      let _, enc_ns = timed (fun () -> Array.map Bmp.encode decoded) in
      let per_frame ns = ratio (fi ns) (fi (Array.length frames)) in
      let spanned = fi sp.l_server.total_ns in
      [ ("server.learn_self_ns", ratio (fi sp.l_server.self_ns) (fi changes));
        ("bmp.msgs_per_route", ratio (fi msgs) (fi changes));
        ("bmp.bytes_per_msg", ratio (fi bytes) (fi msgs));
        ("bmp.encode_ns", per_frame enc_ns);
        ("bmp.decode_ns", per_frame dec_ns);
        ("monitor.feed_ns_per_msg", ratio (fi sp.l_monitor.self_ns) (fi msgs));
        ("monitor.state_mb", reachable_mb f.mon);
        ("monitor.parse_errors", fi (Monitor.parse_errors f.mon));
        ("rib.announce_ns", ratio (fi sp.l_rib.self_ns) (fi sp.l_rib.calls));
        ("rib.peer_tables", fi (List.length (Rib.peers f.rib)));
        ("rib.loc_changes_per_announce", ratio (fi loc_changes) (fi announces));
        ("rib.words_per_route",
          ratio (fi (Obj.reachable_words (Obj.repr f.rib))) (fi (Rib.route_count f.rib)));
        ("rib.lookup_ns", read_ns);
        ("decision.p50_us", decision_p50_us ());
        ("trace.attributed_share", ratio spanned op_total)
      ]
    end
  in
  { setup_s;
    ops = !ops;
    read_ns;
    state_mb = reachable_mb (f.srv, f.mon, f.rib);
    failed = bad;
    layers =
      layers
      @ [ ("gc.minor_words_per_op", ratio !gc.minor (fi n));
          ("gc.promoted_words_per_op", ratio !gc.promoted (fi n));
          ("gc.major_collections", fi !gc.majors);
          ("trace.op_ms", ratio (op_total *. 1e-6) (fi n))
        ];
    report =
      [ Printf.sprintf "routes learned %d, withdrawn %d; BMP messages %d; client RIB %d routes"
          !routes !withdrawn msgs (Rib.route_count f.rib);
        Printf.sprintf "RIB lookups that matched: %d" !hits
      ];
    centres =
      [ ("server", fi sp.l_server.self_ns);
        ("monitor", fi sp.l_monitor.self_ns);
        ("rib", fi sp.l_rib.self_ns);
        ("benchmark loop", op_total -. fi sp.l_server.total_ns)
      ]
  }
