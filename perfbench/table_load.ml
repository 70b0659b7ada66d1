(* The [table_load] workload: a 20-peer TABLE_DUMP_V2 dump, generated
   in set-up from the seed by this file's own generator through
   Mrt.encode_record, replayed into a mux-style Rib by Mrt.load. One
   op is one whole load (about a second), into a fresh Rib.

   The prefixes are distinct by construction (/16 to /24, 60% /24s,
   in address order like a collector dump), and every load is checked
   to hold exactly that many prefixes. Mrt.iter_synthetic_rib is not
   used: it builds prefix i as 0x0400_0000 lor (i lsl 10), which
   aliases prefix i with prefix i + 65,536 (see README.md).

   The traced run times the two layers inside Mrt.load on the same
   dump, outside the op: decoding alone (Mrt.fold) and installing the
   decoded routes with Rib.announce. *)

open Peering_net
open Peering_bgp
module Rng = Peering_sim.Rng
module Metrics = Peering_obs.Metrics
module Mrt = Peering_measure.Mrt
open Harness

let n_peers = 20
let entries_per_prefix = 2

let gen_prefixes rng n =
  let seen = Hashtbl.create n in
  while Hashtbl.length seen < n do
    let len = if Rng.int rng 10 < 6 then 24 else 16 + Rng.int rng 8 in
    let p = Prefix.make (Ipv4.of_int (0x0100_0000 + Rng.int rng 0xDE00_0000)) len in
    Hashtbl.replace seen p ()
  done;
  let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort Prefix.compare a;
  a

let v4 (p : Mrt.peer) =
  match p.Mrt.addr with Mrt.V4 a -> a | Mrt.V6 _ -> invalid_arg "perfbench: v6 peer"

let gen_dump rng ~n_prefixes =
  let peers = Mrt.make_peers ~n:n_peers in
  let prefixes = gen_prefixes rng n_prefixes in
  let buf = Buffer.create (n_prefixes * 96) in
  let record r = Mrt.encode_record buf { Mrt.timestamp = Mrt.base_time; record = r } in
  record
    (Mrt.Peer_index_table
       { collector_id = Ipv4.of_octets 192 0 2 1; view_name = "perfbench"; peers });
  Array.iteri
    (fun seq prefix ->
      let first = Rng.int rng n_peers in
      let entries =
        List.init entries_per_prefix (fun j ->
            let peer_index = (first + (j * 7)) mod n_peers in
            let peer = peers.(peer_index) in
            let path =
              [ peer.Mrt.asn; Asn.of_int (64000 + Rng.int rng 400);
                Asn.of_int (1 + Rng.int rng 60000) ]
            in
            { Mrt.peer_index;
              originated = Mrt.base_time - Rng.int rng 86400;
              attrs =
                Attrs.make ~origin:Attrs.IGP ~as_path:(As_path.of_asns path)
                  ~next_hop:(v4 peer) ();
              next_hop6 = None
            })
      in
      record (Mrt.Rib_v4 { seq; prefix; entries }))
    prefixes;
  (Buffer.to_bytes buf, prefixes)

(* The routes Mrt.load installs, decoded ahead of time with the same
   Rib peer keys and route sources, for the traced Rib replay. *)
let decoded_routes dump =
  match Mrt.read_all dump with
  | Error e -> failwith ("perfbench: " ^ Mrt.error_to_string e)
  | Ok records ->
    let peers = ref [||] in
    List.concat_map
      (fun (t : Mrt.t) ->
        match t.Mrt.record with
        | Mrt.Peer_index_table { peers = p; _ } ->
          peers := p;
          []
        | Mrt.Rib_v4 { prefix; entries; _ } ->
          List.map
            (fun (e : Mrt.rib_entry) ->
              let p = !peers.(e.Mrt.peer_index) in
              let source =
                { Route.peer_asn = p.Mrt.asn; peer_addr = v4 p;
                  peer_router_id = p.Mrt.bgp_id; ebgp = true }
              in
              ( Printf.sprintf "peer%03d" e.Mrt.peer_index,
                Route.make ~source prefix e.Mrt.attrs ))
            entries
        | Mrt.Rib_v6 _ | Mrt.Bgp4mp _ -> [])
      records
    |> Array.of_list

let run cfg =
  let n_prefixes = if cfg.tiny then 2_000 else 45_000 in
  let n_ops = op_count cfg ~per_s:1.0 ~tiny:2 in
  let (dump, prefixes, rng), setup_s =
    setup cfg ~reps:25 (fun () ->
        Metrics.reset ();
        let rng = Rng.create cfg.seed in
        let dump, prefixes = gen_dump rng ~n_prefixes in
        (dump, prefixes, rng))
  in
  let expected_routes = n_prefixes * entries_per_prefix in
  let l_decode = layer "mrt.decode" and l_rib = layer "rib.install" in
  let log = span_log [ l_decode; l_rib ] in
  let replay_routes = if cfg.trace then decoded_routes dump else [||] in
  let ops = ref [] and bad = ref 0 and last = ref None in
  (* reads: addresses inside seeded generated prefixes, against the
     most recently loaded table *)
  let addrs =
    Array.init (n_queries cfg) (fun _ ->
        let p = Rng.choice rng prefixes in
        let host = Rng.int rng (1 lsl (32 - Prefix.len p)) in
        Ipv4.of_int (Ipv4.to_int (Prefix.addr p) lor host))
  in
  let hits = ref 0 and misses = ref 0 in
  let reads =
    reads cfg (fun i ->
        match !last with
        | Some rib when Rib.lookup rib addrs.(i) <> None -> incr hits
        | Some _ | None -> incr misses)
  in
  let gc = ref gc_zero in
  let announces = ref 0 and loc_changes = ref 0 in
  let n_records = n_prefixes + 1 in
  for i = 0 to n_ops - 1 do
    last := None;
    if cfg.trace then begin
      (* replays run on the heap the op will see: the dump and the
         pre-decoded routes, compacted *)
      Gc.compact ();
      let n, ns = timed (fun () -> Mrt.fold dump ~init:0 ~f:(fun n _ -> n + 1)) in
      if n <> Ok n_records then incr bad;
      credit l_decode ~ns ~calls:n_records;
      (* the Rib half costs as much as the op: replay it for the first
         three ops only *)
      if i < 3 then begin
        let rib = Rib.create () in
        let (), ns =
          timed (fun () ->
              Array.iter (fun (peer, r) -> ignore (Rib.announce rib ~peer r)) replay_routes)
        in
        credit l_rib ~ns ~calls:(Array.length replay_routes)
      end
    end;
    (* each load starts from a compacted heap holding only the dump,
       so the previous table's garbage does not set the peak *)
    Gc.compact ();
    let a0 = Metrics.counter_value "bgp.rib.announces"
    and c0 = Metrics.counter_value "bgp.rib.loc_changes" in
    let r, ns = timed_op gc (fun () -> Mrt.load dump) in
    announces := !announces + Metrics.counter_value "bgp.rib.announces" - a0;
    loc_changes := !loc_changes + Metrics.counter_value "bgp.rib.loc_changes" - c0;
    (match r with
    | Ok l
      when l.Mrt.records = n_records
           && l.Mrt.routes4 = expected_routes
           && Rib.prefix_count l.Mrt.rib = n_prefixes
           && Rib.route_count l.Mrt.rib = expected_routes ->
      last := Some l.Mrt.rib;
      ops := (ns, l.Mrt.routes4) :: !ops
    | Ok _ | Error _ ->
      incr bad;
      ops := (ns, 0) :: !ops);
    if cfg.trace then end_op log i;
    (* every load leaves the same table: read after each one *)
    reads_after reads ~first:0 ~n_ops i
  done;
  let read_ns = read_ns reads in
  if !misses > 0 then incr bad;
  let rib = match !last with Some r -> r | None -> Rib.create () in
  let n = List.length !ops in
  let op_total = fi (List.fold_left (fun s (ns, _) -> s + ns) 0 !ops) in
  let op_median = median (List.map (fun (ns, _) -> fi ns) !ops) in
  (* replayed layers, per load *)
  let decode_per_load = ratio (fi l_decode.self_ns) (fi n) in
  let rib_per_load =
    ratio (fi l_rib.self_ns) (fi l_rib.calls) *. fi expected_routes
  in
  let layers =
    if not cfg.trace then []
    else begin
      write_log cfg "table_load" log;
      [ ("rib.announce_ns", ratio (fi l_rib.self_ns) (fi l_rib.calls));
        ("rib.peer_tables", fi (List.length (Rib.peers rib)));
        ("rib.loc_changes_per_announce", ratio (fi !loc_changes) (fi !announces));
        ( "rib.words_per_route",
          ratio (fi (Obj.reachable_words (Obj.repr rib))) (fi expected_routes) );
        ("rib.lookup_ns", read_ns);
        ("decision.p50_us", decision_p50_us ());
        ( "mrt.decode_records_per_s",
          ratio (fi l_decode.calls) (s_of_ns l_decode.self_ns) );
        ("trace.attributed_share", ratio (decode_per_load +. rib_per_load) op_median)
      ]
    end
  in
  { setup_s;
    ops = !ops;
    read_ns;
    state_mb = reachable_mb rib;
    failed = !bad;
    layers =
      layers
      @ [ ("gc.minor_words_per_op", ratio !gc.minor (fi n));
          ("gc.promoted_words_per_op", ratio !gc.promoted (fi n));
          ("gc.major_collections", fi !gc.majors);
          ("trace.op_ms", ratio (op_total *. 1e-6) (fi n))
        ];
    report =
      [ Printf.sprintf "dump: %d bytes, %d distinct prefixes x %d entries over %d peers"
          (Bytes.length dump) n_prefixes entries_per_prefix n_peers
      ];
    centres =
      [ ("rib install", rib_per_load *. fi n);
        ("mrt decode", decode_per_load *. fi n);
        ("load glue (route build, peer keys)",
          op_total -. ((rib_per_load +. decode_per_load) *. fi n))
      ]
  }
