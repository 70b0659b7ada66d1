open Peering_net
open Peering_measure
module Rng = Peering_sim.Rng
module Gen = Peering_topo.Gen

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Dns *)

let test_dns_basic () =
  let d = Dns.create () in
  Dns.add_a d "www.example.com" (ip "93.184.216.34");
  Dns.add_a d "www.example.com" (ip "93.184.216.35");
  Dns.add_a d "WWW.EXAMPLE.COM" (ip "93.184.216.34") (* duplicate, other case *);
  check Alcotest.int "two records" 2 (List.length (Dns.resolve d "www.example.com"));
  check Alcotest.(option string) "first" (Some "93.184.216.34")
    (Option.map Ipv4.to_string (Dns.resolve_one d "www.Example.Com"));
  check Alcotest.(list string) "unknown" []
    (List.map Ipv4.to_string (Dns.resolve d "nope.example"));
  check Alcotest.int "records" 2 (Dns.n_records d)

(* ------------------------------------------------------------------ *)
(* Webworkload *)

let world =
  lazy
    (Gen.generate
       { Gen.default_params with
         Gen.n_stub = 800;
         n_small_transit = 80;
         target_prefixes = 6000
       })

let workload =
  lazy
    (let rng = Rng.create 123 in
     Webworkload.generate
       ~params:
         { Webworkload.n_sites = 100;
           mean_resources = 50.0;
           n_resource_fqdns = 800;
           cdn_share = 0.45;
           site_cdn_share = 0.3
         }
       ~rng (Lazy.force world))

let test_workload_shape () =
  let wl = Lazy.force workload in
  check Alcotest.int "sites" 100 (List.length wl.Webworkload.sites);
  let total = Webworkload.total_resources wl in
  check Alcotest.bool "resources scale with mean" true
    (total > 2000 && total < 12_000);
  let fqdns = Webworkload.distinct_resource_fqdns wl in
  check Alcotest.bool "fqdns below pool size" true (List.length fqdns <= 800);
  check Alcotest.bool "fqdn reuse happens" true (List.length fqdns < total)

let test_workload_resolvable () =
  let wl = Lazy.force workload in
  (* every site and every resource FQDN resolves, and its address
     belongs to a prefix originated by its hosting AS *)
  let g = (Lazy.force world).Gen.graph in
  List.iter
    (fun (s : Webworkload.site) ->
      match Dns.resolve_one wl.Webworkload.dns s.Webworkload.fqdn with
      | None -> Alcotest.failf "site %s unresolvable" s.Webworkload.fqdn
      | Some a -> (
        match Webworkload.hosting_asn wl s.Webworkload.fqdn with
        | None -> Alcotest.fail "no hosting AS"
        | Some h ->
          let inside =
            List.exists
              (fun p -> Prefix.mem a p)
              (Peering_topo.As_graph.prefixes_of g h)
          in
          check Alcotest.bool "address inside hosting AS" true inside))
    wl.Webworkload.sites

let test_workload_cdn_concentration () =
  let wl = Lazy.force workload in
  let w = Lazy.force world in
  let content = Asn.Set.of_list w.Gen.content in
  let fqdns = Webworkload.distinct_resource_fqdns wl in
  let on_cdn =
    List.length
      (List.filter
         (fun f ->
           match Webworkload.hosting_asn wl f with
           | Some h -> Asn.Set.mem h content
           | None -> false)
         fqdns)
  in
  let frac = float_of_int on_cdn /. float_of_int (List.length fqdns) in
  check Alcotest.bool "cdn share near parameter" true
    (frac > 0.3 && frac < 0.6)

(* ------------------------------------------------------------------ *)
(* Collector *)

let test_collector () =
  let c = Collector.create () in
  let p = pfx "184.164.224.0/24" in
  Collector.record c ~time:1.0 ~peer:(asn 3356) ~prefix:p
    ~path:[ asn 3356; asn 47065 ] Collector.Announce;
  Collector.record c ~time:2.0 ~peer:(asn 3356) ~prefix:(pfx "10.0.0.0/8")
    ~path:[ asn 3356 ] Collector.Announce;
  Collector.record c ~time:3.0 ~peer:(asn 3356) ~prefix:p ~path:[]
    Collector.Withdraw;
  check Alcotest.int "entries" 3 (Collector.n_entries c);
  check Alcotest.int "per prefix" 2 (Collector.churn c p);
  check Alcotest.bool "withdrawn: no last path" true (Collector.last_path c p = None);
  Collector.record c ~time:4.0 ~peer:(asn 3356) ~prefix:p
    ~path:[ asn 3356; asn 47065 ] Collector.Announce;
  check Alcotest.(option (list int)) "last path" (Some [ 3356; 47065 ])
    (Option.map (List.map Asn.to_int) (Collector.last_path c p))

(* ------------------------------------------------------------------ *)
(* Reachability *)

let test_reachability_cones () =
  (* tiny world: provider 1 with customers 2,3; 3 has customer 4.
     Peering with 3 yields routes to 3's cone {3,4} only. *)
  let open Peering_topo in
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g (asn a)) [ 1; 2; 3; 4 ];
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 2);
  As_graph.add_edge g (asn 1) Relationship.Customer (asn 3);
  As_graph.add_edge g (asn 3) Relationship.Customer (asn 4);
  As_graph.originate g (asn 2) (pfx "10.2.0.0/16");
  As_graph.originate g (asn 3) (pfx "10.3.0.0/16");
  As_graph.originate g (asn 4) (pfx "10.4.0.0/16");
  let world =
    { Gen.graph = g;
      tier1 = [ asn 1 ];
      large_transit = [];
      small_transit = [ asn 3 ];
      stubs = [ asn 2; asn 4 ];
      content = []
    }
  in
  let t = Reachability.peer_routes world ~peers:[ asn 3 ] in
  check Alcotest.int "cone prefixes" 2 (Reachability.n_prefixes t);
  check Alcotest.bool "covers customer" true
    (Reachability.covers_addr t (ip "10.4.1.1"));
  check Alcotest.bool "not sibling" false
    (Reachability.covers_addr t (ip "10.2.1.1"));
  check Alcotest.bool "covers prefix" true
    (Reachability.covers_prefix t (pfx "10.3.0.0/16"));
  check Alcotest.int "top-2 membership" 1
    (Reachability.peers_in_top world ~peers:[ asn 3; asn 4 ] 2);
  let per_peer = Reachability.routes_per_peer world ~peers:[ asn 3; asn 4 ] in
  check Alcotest.(list (pair int int)) "descending route counts"
    [ (3, 2); (4, 1) ]
    (List.map (fun (a, n) -> (Asn.to_int a, n)) per_peer)

let test_reachability_fraction () =
  let w = Lazy.force world in
  (* peering with every tier-1 covers (almost) the whole Internet *)
  let t = Reachability.peer_routes w ~peers:w.Gen.tier1 in
  let frac = Reachability.fraction_of_internet t w in
  check Alcotest.bool "tier1 cones cover most" true (frac > 0.9);
  (* peering with a handful of stubs covers almost nothing *)
  let stubs = List.filteri (fun i _ -> i < 5) w.Gen.stubs in
  let t2 = Reachability.peer_routes w ~peers:stubs in
  check Alcotest.bool "stub cones tiny" true
    (Reachability.fraction_of_internet t2 w < 0.02)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basics () =
  let l = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check Alcotest.(float 1e-9) "median" 3.0 (Stats.median l);
  check Alcotest.(float 1e-9) "p0" 1.0 (Stats.percentile 0.0 l);
  check Alcotest.(float 1e-9) "p100" 5.0 (Stats.percentile 100.0 l);
  check Alcotest.(float 1e-9) "p25 interpolates" 2.0 (Stats.percentile 25.0 l)

let test_stats_slo () =
  let v = Stats.slo ~name:"x" ~budget_s:10.0 [ 1.0; 2.0 ] in
  check Alcotest.string "name" "x" v.Stats.slo_name;
  check Alcotest.int "samples" 2 v.Stats.samples;
  check Alcotest.bool "slo met under budget" true v.Stats.met;
  (* p99 of [1; 2] interpolates to 1.99 *)
  check Alcotest.(float 1e-9) "p99" 1.99 v.Stats.p99_s;
  check Alcotest.(float 1e-9) "burn = p99/budget" 0.199 v.Stats.burn;
  (* no samples: vacuously met, burn 0 (not nan) *)
  let v0 = Stats.slo ~name:"x" ~budget_s:10.0 [] in
  check Alcotest.bool "vacuous slo met" true v0.Stats.met;
  check Alcotest.(float 1e-9) "vacuous p99" 0.0 v0.Stats.p99_s;
  check Alcotest.(float 1e-9) "vacuous burn" 0.0 v0.Stats.burn;
  check Alcotest.int "vacuous samples" 0 v0.Stats.samples;
  let burned = Stats.slo ~name:"x" ~budget_s:1.0 [ 1.0; 3.0 ] in
  check Alcotest.bool "slo burned over budget" false burned.Stats.met

(* Nearest rank would take the 10th sample (10 s) and burn the budget;
   linear interpolation gives 9.91 s, within it. *)
let test_stats_slo_interpolates () =
  let samples = List.init 10 (fun i -> float_of_int (i + 1)) in
  let v = Stats.slo ~name:"x" ~budget_s:9.95 samples in
  check Alcotest.(float 1e-9) "p99 interpolates" 9.91 v.Stats.p99_s;
  check Alcotest.bool "met" true v.Stats.met

let test_stats_edges () =
  (* single sample: every percentile is that sample *)
  check Alcotest.(float 1e-9) "single p0" 7.0 (Stats.percentile 0.0 [ 7.0 ]);
  check Alcotest.(float 1e-9) "single p50" 7.0 (Stats.percentile 50.0 [ 7.0 ]);
  check Alcotest.(float 1e-9) "single p100" 7.0
    (Stats.percentile 100.0 [ 7.0 ]);
  (match Stats.percentile 50.0 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sample accepted");
  (match Stats.percentile 100.5 [ 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p > 100 accepted");
  (match Stats.percentile (-1.0) [ 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p < 0 accepted");
  (* constant samples: the degenerate (zero-width) range stays sane *)
  check Alcotest.(float 1e-9) "constant median" 4.0
    (Stats.median [ 4.0; 4.0; 4.0 ]);
  check Alcotest.(float 1e-9) "constant p90" 4.0
    (Stats.percentile 90.0 [ 4.0; 4.0; 4.0 ])

(* ------------------------------------------------------------------ *)
(* Mrt *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

(* The checked-in fixture is `mrt dump --scale tiny --seed 7 --updates`;
   these counts pin both the generator and the decoder. A failure here
   means the wire format or the seeded generators changed shape —
   regenerate the fixture (see EXPERIMENTS.md) only if that was
   intentional. *)
let test_mrt_golden_fixture () =
  let dump = read_file "fixtures/table.mrt" in
  check Alcotest.int "bytes" 35351 (Bytes.length dump);
  match Mrt.summarize dump with
  | Error e -> Alcotest.failf "summarize: %s" (Mrt.error_to_string e)
  | Ok s ->
    check Alcotest.int "records" 364 s.Mrt.n_records;
    check Alcotest.int "peer index tables" 1 s.Mrt.n_peer_index;
    check Alcotest.int "peers" 8 s.Mrt.n_peers;
    check Alcotest.int "rib v4" 174 s.Mrt.n_rib4;
    check Alcotest.int "rib v6" 4 s.Mrt.n_rib6;
    check Alcotest.int "bgp4mp" 185 s.Mrt.n_bgp4mp;
    check Alcotest.int "entries" 356 s.Mrt.n_entries

let test_mrt_golden_replay () =
  let dump = read_file "fixtures/table.mrt" in
  match Mrt.load dump with
  | Error e -> Alcotest.failf "load: %s" (Mrt.error_to_string e)
  | Ok l ->
    check Alcotest.int "records" 364 l.Mrt.records;
    check Alcotest.int "v4 routes" 348 l.Mrt.routes4;
    check Alcotest.int "v6 entries" 8 l.Mrt.entries6;
    check Alcotest.int "updates" 185 l.Mrt.updates;
    check Alcotest.int "table prefixes" 174
      (Peering_bgp.Rib.prefix_count l.Mrt.rib);
    check Alcotest.int "table routes" 511
      (Peering_bgp.Rib.route_count l.Mrt.rib)

let test_mrt_roundtrip_fixture () =
  let dump = read_file "fixtures/table.mrt" in
  match Mrt.read_all dump with
  | Error e -> Alcotest.failf "read_all: %s" (Mrt.error_to_string e)
  | Ok records ->
    check Alcotest.bool "re-encode is identity" true
      (Bytes.equal dump (Mrt.encode records))

(* Strictness: a record whose body does not parse exactly to the
   header's length, or that runs past the buffer, is rejected. *)
let test_mrt_malformed () =
  let dump = read_file "fixtures/table.mrt" in
  (match Mrt.decode (Bytes.sub dump 0 11) ~pos:0 with
  | Error Mrt.Truncated -> ()
  | Error e -> Alcotest.failf "short header: %s" (Mrt.error_to_string e)
  | Ok _ -> Alcotest.fail "short header decoded");
  (match Mrt.decode (Bytes.sub dump 0 20) ~pos:0 with
  | Error Mrt.Truncated -> ()
  | Error e -> Alcotest.failf "short body: %s" (Mrt.error_to_string e)
  | Ok _ -> Alcotest.fail "short body decoded");
  (* An unsupported record type (a complete, zero-length TABLE_DUMP
     record) is a Bad_record, not a crash. *)
  let c = Bytes.make 12 '\x00' in
  Bytes.set c 5 '\x0c' (* type 12, legacy TABLE_DUMP *);
  match Mrt.decode c ~pos:0 with
  | Error (Mrt.Bad_record _) -> ()
  | Error e -> Alcotest.failf "bad type: %s" (Mrt.error_to_string e)
  | Ok _ -> Alcotest.fail "unsupported type decoded"

let test_mrt_synthetic_stream () =
  let peers = Mrt.make_peers ~n:20 in
  check Alcotest.int "peer count" 20 (Array.length peers);
  let dump =
    Mrt.encode
      [ { Mrt.timestamp = Mrt.base_time;
          record =
            Mrt.Peer_index_table
              { collector_id = ip "192.168.0.1"; view_name = ""; peers }
        }
      ]
  in
  match Mrt.summarize dump with
  | Error e -> Alcotest.failf "summarize: %s" (Mrt.error_to_string e)
  | Ok s ->
    check Alcotest.int "records" 1 s.Mrt.n_records;
    check Alcotest.int "peers" 20 s.Mrt.n_peers

(* A RIB entry must index into the PEER_INDEX_TABLE before it: an
   index past the table, and a RIB record ahead of any table, are both
   rejected with the offending index. *)
let test_mrt_peer_index_out_of_range () =
  let stamp record = { Mrt.timestamp = Mrt.base_time; record } in
  let table =
    stamp
      (Mrt.Peer_index_table
         { collector_id = ip "192.168.0.1"; view_name = "";
           peers = Mrt.make_peers ~n:2 })
  in
  let rib seq peer_index =
    let attrs =
      Peering_bgp.Attrs.make
        ~as_path:(Peering_bgp.As_path.of_asns [ asn 3356 ])
        ~next_hop:(ip "100.65.0.1") ()
    in
    stamp
      (Mrt.Rib_v4
         { seq; prefix = pfx "10.0.0.0/8";
           entries =
             [ { Mrt.peer_index; originated = Mrt.base_time; attrs;
                 next_hop6 = None } ] })
  in
  let expect_out_of_range name records index =
    match Mrt.load (Mrt.encode records) with
    | Error (Mrt.Bad_record msg) ->
      check Alcotest.string name (Printf.sprintf "peer index %d out of range" index) msg
    | Error e -> Alcotest.failf "%s: %s" name (Mrt.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: loaded" name
  in
  expect_out_of_range "index past the table" [ table; rib 0 1; rib 1 2 ] 2;
  expect_out_of_range "RIB record before any table" [ rib 0 0; table ] 0

(* ------------------------------------------------------------------ *)
(* Monitor: BMP ingest, reassembly, reconstruction *)

module Bmp = Peering_bgp.Bmp
module Attrs = Peering_bgp.Attrs
module As_path = Peering_bgp.As_path
module Message = Peering_bgp.Message
module Capability = Peering_bgp.Capability

let bmp_hdr ?(time = 1.0) a =
  Bmp.make_peer_header ~addr:(ip "100.65.0.1") ~asn:a ~time ()

let bmp_attrs () =
  Attrs.make
    ~as_path:(As_path.of_asns [ asn 3356; asn 65010 ])
    ~next_hop:(ip "100.65.0.1") ()

let bmp_announce ?time peer p =
  Bmp.Route_monitoring
    { peer = bmp_hdr ?time peer;
      update =
        { Message.withdrawn = [];
          attrs = Some (bmp_attrs ());
          nlri = [ (0, p) ]
        }
    }

let bmp_withdraw ?time peer p =
  Bmp.Route_monitoring
    { peer = bmp_hdr ?time peer;
      update = { Message.withdrawn = [ (0, p) ]; attrs = None; nlri = [] }
    }

let bmp_open a =
  { Message.version = 4;
    asn = a;
    hold_time = 90;
    router_id = ip "10.0.0.1";
    capabilities = [ Capability.Four_octet_asn (Asn.to_int a) ]
  }

let bmp_peer_up ?time a =
  Bmp.Peer_up
    { peer = bmp_hdr ?time a;
      local_addr = ip "100.65.0.254";
      local_port = 179;
      remote_port = 40000;
      sent_open = bmp_open (asn 47065);
      recv_open = bmp_open a
    }

(* The same stream fed at every chunk size — including byte-at-a-time —
   reassembles to the same message count, zero residue and the same
   reconstructed RIB digest. *)
let test_monitor_fragmentation () =
  let peer = asn 65010 in
  let stream =
    Bmp.encode_all
      [ Bmp.Initiation { info = [ (2, "mux0") ] };
        bmp_peer_up peer;
        bmp_announce ~time:1.0 peer (pfx "184.164.224.0/24");
        bmp_announce ~time:2.0 peer (pfx "184.164.225.0/24");
        bmp_announce ~time:3.0 peer (pfx "184.164.226.0/24");
        Bmp.Stats_report
          { peer = bmp_hdr ~time:4.0 peer;
            stats =
              [ { Bmp.stat_type = Bmp.stat_routes_adj_rib_in; stat_value = 3 } ]
          }
      ]
  in
  let ingest chunk =
    let mon = Monitor.create () in
    let pos = ref 0 in
    while !pos < Bytes.length stream do
      let n = min chunk (Bytes.length stream - !pos) in
      Monitor.feed mon ~mux:"mux0" (Bytes.sub stream !pos n);
      pos := !pos + n
    done;
    mon
  in
  let reference = ingest (Bytes.length stream) in
  let want = Monitor.rib_digest reference ~mux:"mux0" in
  for chunk = 1 to Bytes.length stream do
    let mon = ingest chunk in
    check Alcotest.int "messages" 6 (Monitor.messages mon);
    check Alcotest.int "no parse errors" 0 (Monitor.parse_errors mon);
    check Alcotest.int "no residue" 0 (Monitor.buffered mon ~mux:"mux0");
    check Alcotest.int "routes" 3 (Monitor.route_count mon ~mux:"mux0");
    check Alcotest.string "digest invariant under fragmentation" want
      (Monitor.rib_digest mon ~mux:"mux0")
  done;
  check Alcotest.(list string) "muxes" [ "mux0" ] (Monitor.muxes reference);
  check Alcotest.(option int) "stats report landed" (Some 3)
    (Monitor.reported_routes reference ~mux:"mux0" ~peer)

(* Reassembly is linear: a 64 KiB stream of ~1.2 KB frames pushed one
   byte at a time rebuilds the same table as one whole push, and
   allocates a bounded number of minor words per byte. Re-copying the
   partial frame on every push costs ~170 words a byte here. *)
let test_monitor_bytewise_linear () =
  let peers = List.map asn [ 65010; 65020; 65030 ] in
  let frame i =
    let peer = List.nth peers (i mod 3) in
    let nlri =
      List.init 300 (fun k ->
          (0, Prefix.make (Ipv4.of_int (0x0A00_0000 + (((i * 300) + k) lsl 8))) 24))
    in
    if i mod 5 = 4 then
      Bmp.Route_monitoring
        { peer = bmp_hdr ~time:(float_of_int i) peer;
          update = { Message.withdrawn = nlri; attrs = None; nlri = [] } }
    else
      Bmp.Route_monitoring
        { peer = bmp_hdr ~time:(float_of_int i) peer;
          update =
            { Message.withdrawn = []; attrs = Some (bmp_attrs ()); nlri } }
  in
  let rec frames i acc =
    if Bytes.length (Bmp.encode_all (List.rev acc)) >= 65_536 then List.rev acc
    else frames (i + 1) (frame i :: acc)
  in
  let stream =
    Bmp.encode_all
      (Bmp.Initiation { info = [ (2, "mux0") ] }
       :: List.map bmp_peer_up peers
       @ frames 0 [])
  in
  let len = Bytes.length stream in
  let whole = Monitor.create () in
  let w0 = Gc.minor_words () in
  Monitor.feed whole ~mux:"mux0" stream;
  let whole_words = Gc.minor_words () -. w0 in
  let bytes = Array.init len (fun i -> Bytes.sub stream i 1) in
  let bytewise = Monitor.create () in
  let b0 = Gc.minor_words () in
  Array.iter (Monitor.feed bytewise ~mux:"mux0") bytes;
  let bytewise_words = Gc.minor_words () -. b0 in
  check Alcotest.bool "stream is at least 64 KiB" true (len >= 65_536);
  check Alcotest.int "parse errors" (Monitor.parse_errors whole)
    (Monitor.parse_errors bytewise);
  check Alcotest.int "messages" (Monitor.messages whole)
    (Monitor.messages bytewise);
  check Alcotest.string "digest" (Monitor.rib_digest whole ~mux:"mux0")
    (Monitor.rib_digest bytewise ~mux:"mux0");
  check Alcotest.int "no residue" 0 (Monitor.buffered bytewise ~mux:"mux0");
  if bytewise_words > whole_words +. (16.0 *. float_of_int len) then
    Alcotest.failf "byte-at-a-time feed allocated %.0f minor words for %d bytes \
                    (whole push: %.0f)" bytewise_words len whole_words

(* Peer Down clears exactly that peer's table; other peers keep
   theirs.  A Termination clears the whole mux. *)
let test_monitor_peer_down () =
  let mon = Monitor.create () in
  let a = asn 100 and b = asn 200 in
  let send m = Monitor.feed mon ~mux:"m" (Bmp.encode m) in
  send (bmp_peer_up a);
  send (bmp_peer_up b);
  send (bmp_announce ~time:1.0 a (pfx "184.164.224.0/24"));
  send (bmp_announce ~time:1.5 a (pfx "184.164.225.0/24"));
  send (bmp_announce ~time:2.0 b (pfx "184.164.226.0/24"));
  check Alcotest.int "both tables filled" 3 (Monitor.route_count mon ~mux:"m");
  check Alcotest.bool "peer a up" true (Monitor.peer_up mon ~mux:"m" ~peer:a);
  send (Bmp.Peer_down { peer = bmp_hdr ~time:3.0 a; reason = 2 });
  check Alcotest.bool "peer a down" false (Monitor.peer_up mon ~mux:"m" ~peer:a);
  check Alcotest.bool "peer a table cleared" true
    (Prefix.Map.is_empty (Monitor.adj_rib mon ~mux:"m" ~peer:a));
  check Alcotest.int "peer b unaffected" 1
    (Prefix.Map.cardinal (Monitor.adj_rib mon ~mux:"m" ~peer:b));
  check Alcotest.bool "mux still up" true (Monitor.mux_up mon ~mux:"m");
  send (Bmp.Termination { info = [] });
  check Alcotest.bool "mux down" false (Monitor.mux_up mon ~mux:"m");
  check Alcotest.int "all tables cleared" 0 (Monitor.route_count mon ~mux:"m")

(* Route Monitoring messages also fill the collector archive, and a
   garbled frame is counted + resynced away without poisoning later
   valid frames. *)
let test_monitor_collector_and_resync () =
  let c = Collector.create () in
  let mon = Monitor.create ~collector:c () in
  let peer = asn 65010 and p = pfx "184.164.224.0/24" in
  Monitor.feed mon ~mux:"m" (Bmp.encode (bmp_announce ~time:1.0 peer p));
  Monitor.feed mon ~mux:"m" (Bmp.encode (bmp_withdraw ~time:2.0 peer p));
  (match Collector.entries c with
  | [ e1; e2 ] ->
    check Alcotest.bool "announce entry" true (e1.Collector.kind = Collector.Announce);
    check Alcotest.(list int) "announce path" [ 3356; 65010 ]
      (List.map Asn.to_int e1.Collector.path);
    check Alcotest.bool "withdraw entry" true (e2.Collector.kind = Collector.Withdraw);
    check Alcotest.bool "prefix" true (Prefix.compare e2.Collector.prefix p = 0)
  | l -> Alcotest.failf "expected 2 collector entries, got %d" (List.length l));
  (* a frame with a bad version byte is dropped and counted *)
  let bad = Bmp.encode (bmp_announce ~time:3.0 peer p) in
  Bytes.set bad 0 '\x09';
  Monitor.feed mon ~mux:"m" bad;
  check Alcotest.int "parse error counted" 1 (Monitor.parse_errors mon);
  (* ... and the feed recovers on the next valid frame *)
  Monitor.feed mon ~mux:"m" (Bmp.encode (bmp_announce ~time:4.0 peer p));
  check Alcotest.int "feed resynced" 1 (Prefix.Map.cardinal (Monitor.adj_rib mon ~mux:"m" ~peer));
  check Alcotest.int "no residue" 0 (Monitor.buffered mon ~mux:"m")

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 30) (float_bound_exclusive 1000.0))
              (pair (int_bound 100) (int_bound 100)))
    (fun (l, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile (float_of_int lo) l
      <= Stats.percentile (float_of_int hi) l +. 1e-9)

let () =
  Alcotest.run "measure"
    [ ("dns", [ tc "basic" `Quick test_dns_basic ]);
      ( "webworkload",
        [ tc "shape" `Quick test_workload_shape;
          tc "resolvable" `Quick test_workload_resolvable;
          tc "cdn concentration" `Quick test_workload_cdn_concentration
        ] );
      ("collector", [ tc "log" `Quick test_collector ]);
      ( "reachability",
        [ tc "cones" `Quick test_reachability_cones;
          tc "fraction" `Quick test_reachability_fraction
        ] );
      ( "mrt",
        [ tc "golden fixture" `Quick test_mrt_golden_fixture;
          tc "golden replay" `Quick test_mrt_golden_replay;
          tc "fixture roundtrip" `Quick test_mrt_roundtrip_fixture;
          tc "malformed records" `Quick test_mrt_malformed;
          tc "peer index out of range" `Quick test_mrt_peer_index_out_of_range;
          tc "synthetic stream" `Quick test_mrt_synthetic_stream
        ] );
      ( "monitor",
        [ tc "fragmentation" `Quick test_monitor_fragmentation;
          tc "byte-at-a-time is linear" `Quick test_monitor_bytewise_linear;
          tc "peer down clears" `Quick test_monitor_peer_down;
          tc "collector + resync" `Quick test_monitor_collector_and_resync
        ] );
      ( "stats",
        [ tc "basics" `Quick test_stats_basics;
          tc "slo" `Quick test_stats_slo;
          tc "slo p99 interpolates" `Quick test_stats_slo_interpolates;
          tc "edge cases" `Quick test_stats_edges;
          QCheck_alcotest.to_alcotest prop_percentile_monotone
        ] )
    ]
