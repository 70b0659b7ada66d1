(* Property harness for the wire codec and the MRT dump round trip.

   Two invariants, on every seed:

   1. Round trip: a dump generated from a seeded world — RIB table plus
      BGP4MP update stream — re-encodes byte-for-byte after decoding
      (the writer is canonical, so decode ∘ encode = id on our own
      output).

   2. Decode is total: [Wire.decode] never raises on a corpus frame,
      and an [Ok (_, next)] stays inside the buffer ([pos < next <=
      length]) — on intact frames (which it must decode whole and
      re-encode to the same bytes), truncations at every offset and
      total-attribute-length overruns (which must be [Truncated]),
      per-attribute length overruns, corrupted marker/length/type
      header bytes, seeded random byte flips, and a seeded QCheck
      sweep of random byte strings and single-byte mutations of the
      handcrafted frames.  The BMP framing keeps two
      readers, [Bmp.decode] and the reference [Bmp.decode_eager],
      which must agree on every BMP corpus frame.

   Run alone with `dune build @mrt-roundtrip`; widen the sweep with
   MRT_ROUNDTRIP_SEEDS=<n> (default 5). *)

open Peering_bgp
module Gen = Peering_topo.Gen
module Mrt = Peering_measure.Mrt

let n_seeds =
  match Sys.getenv_opt "MRT_ROUNDTRIP_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 5)
  | None -> 5

let sizes =
  [ ( "tiny",
      { Gen.default_params with
        Gen.n_tier1 = 4;
        n_large_transit = 6;
        n_small_transit = 12;
        n_stub = 40;
        n_content = 6;
        target_prefixes = 150
      } );
    ( "small",
      { Gen.default_params with
        Gen.n_tier1 = 4;
        n_large_transit = 8;
        n_small_transit = 20;
        n_stub = 90;
        n_content = 8;
        target_prefixes = 300
      } )
  ]

let dump_of ~seed params =
  let world = Gen.generate { params with Gen.seed } in
  Mrt.encode
    (Mrt.table_of_world ~seed world @ Mrt.updates_of_world ~seed world)

(* ------------------------------------------------------------------ *)
(* Invariant 1: dump → parse → re-dump is the identity. *)

let roundtrip_identity () =
  for seed = 1 to n_seeds do
    List.iter
      (fun (size, params) ->
        let bytes1 = dump_of ~seed params in
        match Mrt.read_all bytes1 with
        | Error e ->
          Alcotest.failf "%s seed=%d: own dump failed to parse: %s" size seed
            (Mrt.error_to_string e)
        | Ok records ->
          let bytes2 = Mrt.encode records in
          if not (Bytes.equal bytes1 bytes2) then
            Alcotest.failf
              "%s seed=%d: re-encoded dump differs (%d vs %d bytes)" size
              seed (Bytes.length bytes1) (Bytes.length bytes2))
      sizes
  done

(* ------------------------------------------------------------------ *)
(* Invariant 2: Wire.decode is total and stays in bounds. *)

let show = function
  | Ok (m, n) -> Format.asprintf "Ok(%a, %d)" Message.pp m n
  | Error e -> Printf.sprintf "Error(%s)" (Wire.error_to_string e)

(* The decode result, failing the test if [decode] raises or returns a
   next position outside [(pos, length]]. *)
let total name opts buf ~pos =
  let r =
    try Wire.decode opts buf ~pos
    with e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  (match r with
  | Ok (_, next) when next <= pos || next > Bytes.length buf ->
    Alcotest.failf "%s: %s out of bounds (pos %d, length %d)" name (show r)
      pos (Bytes.length buf)
  | _ -> ());
  r

let in_bounds name opts buf ~pos = ignore (total name opts buf ~pos)

let truncated name opts buf =
  match total name opts buf ~pos:0 with
  | Error Wire.Truncated -> ()
  | r -> Alcotest.failf "%s: %s, not Truncated" name (show r)

(* Every frame in the dump's BGP4MP stream, with the session options
   its subtype implies. *)
let corpus_of_dump bytes =
  match Mrt.read_all bytes with
  | Error e -> Alcotest.failf "corpus dump unreadable: %s" (Mrt.error_to_string e)
  | Ok records ->
    List.filter_map
      (fun t ->
        match t.Mrt.record with
        | Mrt.Bgp4mp { as4; payload; _ } ->
          Some ({ Wire.four_octet_asn = as4; add_path = false }, payload)
        | _ -> None)
      records

(* Handcrafted frames covering the message kinds and attribute shapes
   the synthetic worlds do not produce. *)
let handcrafted =
  let open Message in
  let pfx s = Peering_net.Prefix.of_string_exn s in
  let asn = Peering_net.Asn.of_int in
  let ip = Peering_net.Ipv4.of_int in
  let attrs =
    Attrs.make ~origin:Attrs.EGP
      ~as_path:(As_path.of_asns [ asn 65001; asn 65002 ])
      ~med:42 ~local_pref:200 ~atomic_aggregate:true
      ~aggregator:(asn 65001, ip 0x0A000001)
      ~communities:[ Community.make 65001 100; Community.make 65001 200 ]
      ~next_hop:(ip 0x0A000002) ()
  in
  let two = Wire.default_opts in
  let four = { Wire.four_octet_asn = true; add_path = false } in
  let addpath = { Wire.four_octet_asn = true; add_path = true } in
  [ (two, Keepalive);
    (two, Notification { code = 6; subcode = 2; reason = "shutdown" });
    ( two,
      Open
        { version = 4;
          asn = asn 65010;
          hold_time = 90;
          router_id = ip 0x0A0A0A0A;
          capabilities = []
        } );
    (two, update_of_announce (pfx "203.0.113.0/24") attrs);
    (four, update_of_announce (pfx "203.0.113.0/24") attrs);
    (addpath, update_of_announce ~path_id:7 (pfx "203.0.113.0/24") attrs);
    (two, update_of_withdraw (pfx "198.51.100.0/24"));
    ( two,
      Update
        { withdrawn = [ (0, pfx "198.51.100.0/24") ];
          attrs = Some attrs;
          nlri = [ (0, pfx "203.0.113.0/24") ]
        } )
  ]
  |> List.map (fun (opts, m) -> (opts, Wire.encode opts m))

let full_corpus () =
  let dump = dump_of ~seed:1 (List.assoc "tiny" sizes) in
  handcrafted @ corpus_of_dump dump

(* Intact frames decode whole, and the canonical encoder gives back
   the same bytes. *)
let intact name opts b =
  match total name opts b ~pos:0 with
  | Ok (m, n) when n = Bytes.length b ->
    if not (Bytes.equal (Wire.encode opts m) b) then
      Alcotest.failf "%s: %s re-encodes differently" name (show (Ok (m, n)))
  | r -> Alcotest.failf "%s: intact frame gave %s" name (show r)

let corpus_intact () =
  List.iteri
    (fun i (opts, b) -> intact (Printf.sprintf "frame %d" i) opts b)
    (full_corpus ())

(* Truncation at every prefix length of every frame: the header's
   length always outruns the cut. *)
let corpus_truncated () =
  List.iteri
    (fun i (opts, b) ->
      for len = 0 to Bytes.length b - 1 do
        truncated
          (Printf.sprintf "frame %d cut at %d" i len)
          opts (Bytes.sub b 0 len)
      done)
    (full_corpus ())

(* Every header byte corrupted in turn: marker bytes (0..15) break the
   marker, length bytes (16..17) produce out-of-range or lying lengths,
   the type byte (18) an unknown type. *)
let corpus_bad_header () =
  List.iteri
    (fun i (opts, b) ->
      for off = 0 to 18 do
        let c = Bytes.copy b in
        Bytes.set c off (Char.chr (Char.code (Bytes.get c off) lxor 0xFF));
        in_bounds (Printf.sprintf "frame %d header^%d" i off) opts c ~pos:0
      done)
    (full_corpus ())

(* Attribute-length overruns: bump the total-attributes length (past
   the body: [Truncated]) and each per-attribute length byte of an
   UPDATE (a TLV that swallows its successors may fail otherwise). *)
let corpus_attr_overrun () =
  let opts = Wire.default_opts in
  let pfx s = Peering_net.Prefix.of_string_exn s in
  let attrs =
    Attrs.make
      ~as_path:(As_path.of_asns [ Peering_net.Asn.of_int 65001 ])
      ~next_hop:(Peering_net.Ipv4.of_int 0x0A000002)
      ()
  in
  let b = Wire.encode opts (Message.update_of_announce (pfx "10.1.0.0/16") attrs) in
  (* Body layout: wlen(2) = 0, then alen(2), then attribute TLVs. *)
  for delta = 1 to 4 do
    let c = Bytes.copy b in
    let alen = (Char.code (Bytes.get c 21) lsl 8) lor Char.code (Bytes.get c 22) in
    let alen' = alen + delta in
    Bytes.set c 21 (Char.chr (alen' lsr 8));
    Bytes.set c 22 (Char.chr (alen' land 0xFF));
    truncated (Printf.sprintf "attrs-len +%d" delta) opts c
  done;
  (* Each attribute TLV's length byte (flags, code, len): overrun it. *)
  let alen = (Char.code (Bytes.get b 21) lsl 8) lor Char.code (Bytes.get b 22) in
  let pos = ref 23 in
  while !pos < 23 + alen do
    let len_off = !pos + 2 in
    let len = Char.code (Bytes.get b len_off) in
    let c = Bytes.copy b in
    Bytes.set c len_off (Char.chr (min 255 (len + 7)));
    in_bounds (Printf.sprintf "attr at %d len+7" !pos) opts c ~pos:0;
    pos := len_off + 1 + len
  done

(* Seeded random byte flips over the whole corpus — whatever the flip
   produces, decode returns a result inside the buffer. *)
let corpus_random_flips () =
  let rng = Random.State.make [| 0x6d7274 |] in
  List.iteri
    (fun i (opts, b) ->
      for trial = 0 to 19 do
        let c = Bytes.copy b in
        let flips = 1 + Random.State.int rng 3 in
        for _ = 1 to flips do
          let off = Random.State.int rng (Bytes.length c) in
          Bytes.set c off (Char.chr (Random.State.int rng 256))
        done;
        in_bounds (Printf.sprintf "frame %d flip trial %d" i trial) opts c
          ~pos:0
      done)
    (full_corpus ())

(* Every seed's dump, not just the fixed corpus seed, decodes whole. *)
let sweep_seeds () =
  for seed = 1 to n_seeds do
    List.iter
      (fun (size, params) ->
        let dump = dump_of ~seed params in
        List.iteri
          (fun i (opts, b) ->
            intact (Printf.sprintf "%s seed=%d frame %d" size seed i) opts b)
          (corpus_of_dump dump))
      sizes
  done

(* Seeded QCheck sweep: random byte strings of up to 4,096 bytes
   decoded at a random position, and single-byte mutations of the
   handcrafted frames.  Half the strings carry the 16-byte marker at
   that position so the length and type checks see them; half the
   mutations land in the 19-byte header. *)
let all_opts =
  [| Wire.default_opts;
     { Wire.four_octet_asn = true; add_path = false };
     { Wire.four_octet_asn = true; add_path = true }
  |]

let garbage =
  QCheck.Gen.(
    oneofa all_opts >>= fun opts ->
    string_size (int_range 0 4096) >>= fun s ->
    int_bound (String.length s) >>= fun pos ->
    bool >|= fun framed ->
    let b = Bytes.of_string s in
    if framed then Bytes.fill b pos (min 16 (Bytes.length b - pos)) '\xFF';
    (opts, b, pos))

let mutant =
  QCheck.Gen.(
    oneofl handcrafted >>= fun (opts, b) ->
    bool >>= fun in_header ->
    int_bound (if in_header then 18 else Bytes.length b - 1) >>= fun off ->
    int_bound 255 >|= fun v ->
    let c = Bytes.copy b in
    Bytes.set c off (Char.chr v);
    (opts, c, 0))

let prop_decode_total =
  let print (_, b, pos) =
    Printf.sprintf "pos %d of %S" pos (Bytes.to_string b)
  in
  QCheck.Test.make ~name:"wire decode total" ~count:1000
    (QCheck.make ~print QCheck.Gen.(frequency [ (1, garbage); (1, mutant) ]))
    (fun (opts, b, pos) ->
      match Wire.decode opts b ~pos with
      | Ok (_, next) -> pos < next && next <= Bytes.length b
      | Error _ -> true)

let qcheck_total () =
  for seed = 1 to n_seeds do
    QCheck.Test.check_exn
      ~rand:(Random.State.make [| 0x746f74; seed |])
      prop_decode_total
  done

(* ------------------------------------------------------------------ *)
(* BMP corruption corpus: [Bmp.decode] and the reference
   [Bmp.decode_eager] read the BMP framing independently, so they must
   agree — message and [Bmp.error] alike — on every intact, truncated
   and corrupted frame. *)

let bmp_show = function
  | Ok (m, n) -> Printf.sprintf "Ok(%s, %d)" (Bmp.msg_type_name (Bmp.msg_type m)) n
  | Error e -> Printf.sprintf "Error(%s)" (Bmp.error_to_string e)

let bmp_agree name buf ~pos =
  let cursor = Bmp.decode buf ~pos in
  let eager = Bmp.decode_eager buf ~pos in
  if cursor <> eager then
    Alcotest.failf "%s: cursor %s / eager %s" name (bmp_show cursor)
      (bmp_show eager)

let bmp_corpus =
  let pfx s = Peering_net.Prefix.of_string_exn s in
  let asn = Peering_net.Asn.of_int in
  let ip = Peering_net.Ipv4.of_int in
  let peer =
    Bmp.make_peer_header ~addr:(ip 0x64410001) ~asn:(asn 65010)
      ~time:12.345678 ()
  in
  let attrs =
    Attrs.make
      ~as_path:(As_path.of_asns [ asn 3356; asn 65010 ])
      ~communities:[ Community.make 65010 100 ]
      ~next_hop:(ip 0x64410001) ()
  in
  let open_msg a =
    { Message.version = 4;
      asn = a;
      hold_time = 90;
      router_id = ip 0x0A0A0A0A;
      capabilities = [ Capability.Four_octet_asn (Peering_net.Asn.to_int a) ]
    }
  in
  List.map Bmp.encode
    [ Bmp.Route_monitoring
        { peer;
          update =
            { Message.withdrawn = [ (0, pfx "198.51.100.0/24") ];
              attrs = Some attrs;
              nlri = [ (0, pfx "184.164.224.0/24") ]
            }
        };
      Bmp.Stats_report
        { peer;
          stats =
            [ { Bmp.stat_type = 0; stat_value = 7 };
              { Bmp.stat_type = Bmp.stat_routes_adj_rib_in;
                stat_value = 123_456_789_000
              }
            ]
        };
      Bmp.Peer_down { peer; reason = 2 };
      Bmp.Peer_up
        { peer;
          local_addr = ip 0x644100FE;
          local_port = 179;
          remote_port = 40000;
          sent_open = open_msg (asn 47065);
          recv_open = open_msg (asn 65010)
        };
      Bmp.Initiation { info = [ (2, "amsterdam01"); (1, "peering mux") ] };
      Bmp.Termination { info = [ (0, "bye") ] }
    ]

let bmp_intact () =
  List.iteri
    (fun i b -> bmp_agree (Printf.sprintf "bmp frame %d" i) b ~pos:0)
    bmp_corpus

let bmp_truncated () =
  List.iteri
    (fun i b ->
      for len = 0 to Bytes.length b - 1 do
        bmp_agree
          (Printf.sprintf "bmp frame %d cut at %d" i len)
          (Bytes.sub b 0 len) ~pos:0
      done)
    bmp_corpus

(* The 6-byte common header (version, length, type) and — on
   peer-scoped frames — the whole 42-byte per-peer header, each byte
   corrupted in turn. *)
let bmp_bad_headers () =
  List.iteri
    (fun i b ->
      let span = min (Bytes.length b - 1) (6 + 42 - 1) in
      for off = 0 to span do
        let c = Bytes.copy b in
        Bytes.set c off (Char.chr (Char.code (Bytes.get c off) lxor 0xFF));
        bmp_agree (Printf.sprintf "bmp frame %d header^%d" i off) c ~pos:0
      done)
    bmp_corpus

let bmp_random_flips () =
  let rng = Random.State.make [| 0x626d70 |] in
  List.iteri
    (fun i b ->
      for trial = 0 to 19 do
        let c = Bytes.copy b in
        let flips = 1 + Random.State.int rng 3 in
        for _ = 1 to flips do
          let off = Random.State.int rng (Bytes.length c) in
          Bytes.set c off (Char.chr (Random.State.int rng 256))
        done;
        bmp_agree (Printf.sprintf "bmp frame %d flip trial %d" i trial) c
          ~pos:0
      done)
    bmp_corpus

let () =
  Printf.printf
    "mrt-roundtrip: %d seeds per size (MRT_ROUNDTRIP_SEEDS to widen)\n"
    n_seeds;
  Alcotest.run "mrt_roundtrip"
    [ ( "roundtrip",
        [ Alcotest.test_case "dump-parse-redump identity" `Quick
            roundtrip_identity
        ] );
      ( "cursor-vs-eager",
        [ Alcotest.test_case "intact frames" `Quick corpus_intact;
          Alcotest.test_case "truncated at every offset" `Quick
            corpus_truncated;
          Alcotest.test_case "corrupt header bytes" `Quick corpus_bad_header;
          Alcotest.test_case "attribute length overruns" `Quick
            corpus_attr_overrun;
          Alcotest.test_case "random byte flips" `Quick corpus_random_flips;
          Alcotest.test_case "seeded update streams" `Quick sweep_seeds
        ] );
      ( "wire-decode-total",
        [ Alcotest.test_case "qcheck garbage + mutated frames" `Quick
            qcheck_total
        ] );
      ( "bmp-cursor-vs-eager",
        [ Alcotest.test_case "intact frames" `Quick bmp_intact;
          Alcotest.test_case "truncated at every offset" `Quick bmp_truncated;
          Alcotest.test_case "corrupt common + peer headers" `Quick
            bmp_bad_headers;
          Alcotest.test_case "random byte flips" `Quick bmp_random_flips
        ] )
    ]
