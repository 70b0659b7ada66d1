open Peering_net
open Peering_bgp

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* A bare path-attribute section, as bytes. *)
let encode_attrs ?with_next_hop opts a =
  let b = Buffer.create 64 in
  Wire.put_attrs ?with_next_hop opts b a;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* As_path *)

let test_path_prepend () =
  let p = As_path.of_asns [ asn 2; asn 3 ] in
  let p = As_path.prepend (asn 1) p in
  check Alcotest.(list int) "prepend extends seq" [ 1; 2; 3 ]
    (List.map Asn.to_int (As_path.to_asns p));
  check Alcotest.int "length" 3 (As_path.length p);
  let p5 = As_path.prepend_n (asn 9) 3 p in
  check Alcotest.int "prepend_n" 6 (As_path.length p5);
  check Alcotest.(option int) "neighbor" (Some 9)
    (Option.map Asn.to_int (As_path.neighbor_asn p5));
  check Alcotest.(option int) "origin" (Some 3)
    (Option.map Asn.to_int (As_path.origin_asn p5))

let test_path_set_length () =
  let p =
    As_path.of_segments
      [ As_path.Seq [ asn 1; asn 2 ]; As_path.Set [ asn 3; asn 4; asn 5 ] ]
  in
  check Alcotest.int "set counts one" 3 (As_path.length p);
  check Alcotest.bool "mem in set" true (As_path.mem (asn 4) p);
  check Alcotest.bool "not mem" false (As_path.mem (asn 9) p)

let seg_lengths p =
  List.map (fun (As_path.Seq l | As_path.Set l) -> List.length l) (As_path.segments p)

(* A 300-ASN sequence is two segments, 255 then 45, and crosses the wire
   and BMP whole: a count byte cannot hold 300. *)
let test_path_split_255 () =
  let p = As_path.of_asns (List.init 300 (fun i -> asn (70_000 + i))) in
  check Alcotest.(list int) "split at 255" [ 255; 45 ] (seg_lengths p);
  check Alcotest.int "length" 300 (As_path.length p);
  check Alcotest.(option int) "origin" (Some 70_299)
    (Option.map Asn.to_int (As_path.origin_asn p));
  let update p =
    { Message.withdrawn = [];
      attrs = Some (Attrs.make ~as_path:p ~next_hop:(ip "10.0.0.1") ());
      nlri = [ (0, pfx "184.164.224.0/24") ]
    }
  in
  let wire name opts p =
    let u = update p in
    match Wire.decode opts (Wire.encode opts (Message.Update u)) ~pos:0 with
    | Ok (Message.Update u', _) -> check Alcotest.bool name true (u' = u)
    | Ok _ -> Alcotest.failf "%s: not an update" name
    | Error e -> Alcotest.failf "%s: %s" name (Wire.error_to_string e)
  in
  wire "wire, 4-octet" { Wire.four_octet_asn = true; add_path = false } p;
  wire "wire, 2-octet" Wire.default_opts
    (As_path.of_asns (List.init 300 (fun i -> asn (1_000 + i))));
  let msg =
    Bmp.Route_monitoring
      { peer = Bmp.make_peer_header ~addr:(ip "100.65.0.1") ~asn:(asn 65010)
          ~time:1.0 ();
        update = update p
      }
  in
  match Bmp.decode (Bmp.encode msg) ~pos:0 with
  | Ok (m, _) -> check Alcotest.bool "bmp" true (m = msg)
  | Error e -> Alcotest.failf "bmp: %s" (Bmp.error_to_string e)

let test_path_prepend_full_segment () =
  let full = As_path.of_asns (List.init 255 (fun i -> asn (100 + i))) in
  let p = As_path.prepend (asn 7) full in
  check Alcotest.(list int) "new leading segment" [ 1; 255 ] (seg_lengths p);
  check Alcotest.int "length" 256 (As_path.length p);
  check Alcotest.(option int) "neighbor" (Some 7)
    (Option.map Asn.to_int (As_path.neighbor_asn p));
  check Alcotest.(list int) "next prepend extends it" [ 2; 255 ]
    (seg_lengths (As_path.prepend (asn 8) p))

(* The packed As_path against the segment-list reference, on segments
   of 0-255 ASNs from the whole 32-bit space. *)
module Ref = As_path_reference

let gen_wide_asn =
  QCheck.Gen.(
    map asn
      (frequency
         [ (3, int_range 0 65_535);
           (1, int_range 64_512 65_534);
           (3, int_range 65_536 0xFFFF_FFFF);
           (1, int_range 4_200_000_000 4_294_967_294)
         ]))

let gen_segments =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (let* n = frequency [ (6, int_range 0 4); (1, int_range 0 255) ] in
       let* l = list_repeat n gen_wide_asn in
       oneofl [ As_path.Seq l; As_path.Set l ]))

let prop_as_path_reference =
  QCheck.Test.make ~name:"as-path = segment-list reference" ~count:500
    (QCheck.make
       QCheck.Gen.(quad gen_segments gen_segments gen_wide_asn (int_range 0 3)))
    (fun (s1, s2, a, n) ->
      let ok what b = b || QCheck.Test.fail_reportf "%s differs" what in
      let p = As_path.of_segments s1 and r = Ref.of_segments s1 in
      let agree what p r = ok what (As_path.segments p = r) in
      let probe = match Ref.to_asns r with x :: _ -> x | [] -> a in
      let wire opts p =
        let attrs = Attrs.make ~as_path:p ~next_hop:(ip "10.0.0.1") () in
        match
          Wire.decode_attrs opts (Wire.Cursor.of_bytes (encode_attrs opts attrs))
        with
        | Ok (Some a) -> As_path.segments a.Attrs.as_path
        | Ok None -> QCheck.Test.fail_report "no attributes"
        | Error e -> QCheck.Test.fail_reportf "wire: %s" (Wire.error_to_string e)
      in
      let trans =
        List.map (fun a -> if Asn.to_int a > 0xFFFF then asn 23456 else a)
      in
      (* pairs that share segments, differ in a segment's type, or in
         length, besides two unrelated paths *)
      let pairs =
        let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
        let flip =
          List.map (function As_path.Seq l -> As_path.Set l | As_path.Set l -> As_path.Seq l)
        in
        [ s2; s1; drop_last s1; flip s1; s1 @ s2 ]
      in
      let sign c = Int.compare c 0 in
      agree "segments" p r
      && ok "to_asns" (As_path.to_asns p = Ref.to_asns r)
      && ok "length" (As_path.length p = Ref.length r)
      && ok "mem" (As_path.mem probe p = Ref.mem probe r)
      && ok "mem absent" (As_path.mem a p = Ref.mem a r)
      && ok "origin_asn" (As_path.origin_asn p = Ref.origin_asn r)
      && ok "neighbor_asn" (As_path.neighbor_asn p = Ref.neighbor_asn r)
      && agree "prepend" (As_path.prepend a p) (Ref.prepend a r)
      && agree "prepend_n" (As_path.prepend_n a n p) (Ref.prepend_n a n r)
      && ok "pp" (Format.asprintf "%a" As_path.pp p = Ref.to_string r)
      && List.for_all
           (fun s ->
             ok "compare"
               (sign (As_path.compare p (As_path.of_segments s))
               = sign (Ref.compare r (Ref.of_segments s))))
           pairs
      && ok "wire, 4-octet" (wire { Wire.four_octet_asn = true; add_path = false } p = r)
      && ok "wire, 2-octet"
           (wire Wire.default_opts p
           = List.map
               (function
                 | As_path.Seq l -> As_path.Seq (trans l)
                 | As_path.Set l -> As_path.Set (trans l))
               r))

(* ------------------------------------------------------------------ *)
(* Community *)

let test_community_parts () =
  let c = Community.make 47065 1001 in
  check Alcotest.int "asn part" 47065 (Community.asn_part c);
  check Alcotest.string "to_string" "47065:1001" (Community.to_string c);
  check Alcotest.bool "of_string" true
    (Community.of_string "47065:1001" = Some c)

let test_community_well_known () =
  check Alcotest.string "no-export" "no-export"
    (Community.to_string Community.no_export)

let test_community_sets () =
  let a = Community.make 1 1 and b = Community.make 1 2 in
  let l = Community.add b (Community.add a (Community.add b [])) in
  check Alcotest.int "no duplicates" 2 (List.length l);
  check Alcotest.bool "mem" true (Community.mem a l);
  check Alcotest.bool "not mem" false (Community.mem (Community.make 2 1) l)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let sample_attrs =
  Attrs.make ~origin:Attrs.IGP
    ~as_path:(As_path.of_asns [ asn 47065; asn 3356; asn 15169 ])
    ~med:50 ~local_pref:120
    ~communities:[ Community.make 47065 100; Community.no_export ]
    ~aggregator:(asn 47065, ip "184.164.224.1")
    ~next_hop:(ip "192.0.2.1") ()

(* Encode, then decode the whole buffer back to one message. *)
let roundtrip opts msg =
  let b = Wire.encode opts msg in
  match Wire.decode opts b ~pos:0 with
  | Ok (m, n) when n = Bytes.length b -> m
  | Ok (_, n) -> Alcotest.failf "decoded %d of %d bytes" n (Bytes.length b)
  | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)

let test_wire_keepalive () =
  let opts = Wire.default_opts in
  match roundtrip opts Message.Keepalive with
  | Message.Keepalive -> ()
  | _ -> Alcotest.fail "keepalive roundtrip"

let test_wire_open () =
  let opts = Wire.default_opts in
  let o =
    { Message.version = 4;
      asn = asn 47065;
      hold_time = 90;
      router_id = ip "10.0.0.1";
      capabilities =
        [ Capability.Four_octet_asn 47065;
          Capability.Route_refresh;
          Capability.Add_path Capability.Send_receive;
          Capability.Graceful_restart 120
        ]
    }
  in
  match roundtrip opts (Message.Open o) with
  | Message.Open o' ->
    check Alcotest.int "asn" 47065 (Asn.to_int o'.Message.asn);
    check Alcotest.int "hold" 90 o'.Message.hold_time;
    check Alcotest.int "caps" 4 (List.length o'.Message.capabilities);
    check Alcotest.bool "add-path negotiable" true
      (Capability.negotiated_add_path o.Message.capabilities
         o'.Message.capabilities)
  | _ -> Alcotest.fail "open roundtrip"

let test_wire_open_4byte_asn () =
  (* An ASN above 65535 must ride in the capability, with AS_TRANS in
     the fixed field. *)
  let opts = Wire.default_opts in
  let o =
    { Message.version = 4;
      asn = asn 200000;
      hold_time = 30;
      router_id = ip "1.1.1.1";
      capabilities = [ Capability.Four_octet_asn 200000 ]
    }
  in
  match roundtrip opts (Message.Open o) with
  | Message.Open o' -> check Alcotest.int "4-byte asn recovered" 200000
      (Asn.to_int o'.Message.asn)
  | _ -> Alcotest.fail "roundtrip"

let test_wire_update () =
  List.iter
    (fun opts ->
      let u =
        { Message.withdrawn = [ (0, pfx "10.11.0.0/16") ];
          attrs = Some sample_attrs;
          nlri = [ (0, pfx "184.164.224.0/24"); (0, pfx "184.164.225.0/24") ]
        }
      in
      match roundtrip opts (Message.Update u) with
      | Message.Update u' ->
        check Alcotest.int "withdrawn" 1 (List.length u'.Message.withdrawn);
        check Alcotest.int "nlri" 2 (List.length u'.Message.nlri);
        let a = Option.get u'.Message.attrs in
        check Alcotest.bool "attrs equal" true (Attrs.equal sample_attrs a)
      | _ -> Alcotest.fail "update roundtrip")
    [ { Wire.four_octet_asn = false; add_path = false };
      { Wire.four_octet_asn = true; add_path = false } ]

let test_wire_update_add_path () =
  let opts = { Wire.four_octet_asn = true; add_path = true } in
  let u =
    { Message.withdrawn = [ (7, pfx "10.0.0.0/8") ];
      attrs = Some sample_attrs;
      nlri = [ (42, pfx "184.164.224.0/24") ]
    }
  in
  match roundtrip opts (Message.Update u) with
  | Message.Update u' ->
    check Alcotest.(list (pair int string)) "path ids survive"
      [ (42, "184.164.224.0/24") ]
      (List.map (fun (i, p) -> (i, Prefix.to_string p)) u'.Message.nlri);
    check Alcotest.(list int) "withdraw path id" [ 7 ]
      (List.map fst u'.Message.withdrawn)
  | _ -> Alcotest.fail "add-path roundtrip"

let test_wire_notification () =
  let n = { Message.code = 6; subcode = 0; reason = "administrative reset" } in
  match roundtrip Wire.default_opts (Message.Notification n) with
  | Message.Notification n' ->
    check Alcotest.string "reason" "administrative reset" n'.Message.reason;
    check Alcotest.int "code" 6 n'.Message.code
  | _ -> Alcotest.fail "notification roundtrip"

let test_wire_truncated () =
  let b = Wire.encode Wire.default_opts Message.Keepalive in
  let short = Bytes.sub b 0 (Bytes.length b - 1) in
  match Wire.decode Wire.default_opts short ~pos:0 with
  | Error Wire.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "decoded truncated message"

let test_wire_bad_marker () =
  let b = Wire.encode Wire.default_opts Message.Keepalive in
  Bytes.set b 3 '\x00';
  match Wire.decode Wire.default_opts b ~pos:0 with
  | Error Wire.Bad_marker -> ()
  | _ -> Alcotest.fail "accepted bad marker"

(* The exact result of [Wire.decode] on the classic corruption cases.
   The wide sweep lives in the @mrt-roundtrip harness; these pin the
   named cases. *)
let expect_decode name opts buf expect =
  match (expect, Wire.decode opts buf ~pos:0) with
  | None, Ok (_, n) when n = Bytes.length buf -> ()
  | None, Ok (_, n) -> Alcotest.failf "%s: consumed %d bytes" name n
  | Some want, Error got when want = got -> ()
  | Some want, got ->
    Alcotest.failf "%s: expected %s, got %s" name
      (Wire.error_to_string want)
      (match got with
      | Ok _ -> "Ok"
      | Error e -> Wire.error_to_string e)
  | None, Error e ->
    Alcotest.failf "%s: expected Ok, got %s" name (Wire.error_to_string e)

let test_wire_decode_errors () =
  let opts = Wire.default_opts in
  let upd =
    Wire.encode opts (Message.update_of_announce (pfx "10.1.0.0/16") sample_attrs)
  in
  expect_decode "intact" opts upd None;
  (* Truncated header: fewer than 19 bytes. *)
  expect_decode "truncated header" opts (Bytes.sub upd 0 12) (Some Wire.Truncated);
  (* Bad marker byte. *)
  let bad = Bytes.copy upd in
  Bytes.set bad 7 '\x42';
  expect_decode "bad marker" opts bad (Some Wire.Bad_marker);
  (* Attribute length overrun: total-attrs length past the body. *)
  let bad = Bytes.copy upd in
  Bytes.set bad 22 (Char.chr (Char.code (Bytes.get bad 22) + 4));
  expect_decode "attrs length overrun" opts bad (Some Wire.Truncated);
  (* Per-attribute length overrun: first TLV's length runs past the
     attribute section. *)
  let bad = Bytes.copy upd in
  Bytes.set bad 25 (Char.chr 200);
  expect_decode "attr TLV overrun" opts bad (Some Wire.Truncated);
  (* Truncation at every offset of the UPDATE: the header's length
     always outruns the cut. *)
  for len = 0 to Bytes.length upd - 1 do
    expect_decode
      (Printf.sprintf "cut at %d" len)
      opts (Bytes.sub upd 0 len) (Some Wire.Truncated)
  done

let test_wire_encode_attrs_next_hop () =
  let opts = { Wire.four_octet_asn = true; add_path = false } in
  let with_nh = encode_attrs opts sample_attrs in
  let without = encode_attrs ~with_next_hop:false opts sample_attrs in
  check Alcotest.bool "omitting NEXT_HOP shrinks the section" true
    (Bytes.length without < Bytes.length with_nh);
  (* Round trip through the bare-section decoder. *)
  (match Wire.decode_attrs opts (Wire.Cursor.of_bytes with_nh) with
  | Ok (Some a) -> check Alcotest.bool "full section" true
      (Attrs.equal sample_attrs a)
  | _ -> Alcotest.fail "decode_attrs with next hop");
  (* Without NEXT_HOP the strict decoder rejects ... *)
  (match Wire.decode_attrs opts (Wire.Cursor.of_bytes without) with
  | Error (Wire.Bad_attribute _) -> ()
  | _ -> Alcotest.fail "strict decode accepted missing NEXT_HOP");
  (* ... and the MRT-mode decoder substitutes 0.0.0.0. *)
  match Wire.decode_attrs ~require_next_hop:false opts
          (Wire.Cursor.of_bytes without)
  with
  | Ok (Some a) ->
    check Alcotest.string "placeholder next hop" "0.0.0.0"
      (Ipv4.to_string a.Attrs.next_hop);
    check Alcotest.bool "rest of attrs survive" true
      (Attrs.equal sample_attrs { a with Attrs.next_hop = sample_attrs.Attrs.next_hop })
  | _ -> Alcotest.fail "lenient decode failed"

let test_wire_stream () =
  (* Multiple messages back to back decode sequentially. *)
  let opts = Wire.default_opts in
  let m1 = Wire.encode opts Message.Keepalive in
  let m2 = Wire.encode opts (Message.update_of_withdraw (pfx "10.0.0.0/8")) in
  let buf = Bytes.cat m1 m2 in
  match Wire.decode opts buf ~pos:0 with
  | Ok (Message.Keepalive, n) -> (
    match Wire.decode opts buf ~pos:n with
    | Ok (Message.Update u, n') ->
      check Alcotest.int "consumed all" (Bytes.length buf) n';
      check Alcotest.int "withdraw count" 1 (List.length u.Message.withdrawn)
    | _ -> Alcotest.fail "second message")
  | _ -> Alcotest.fail "first message"

(* QCheck: random updates roundtrip. *)
let gen_asn = QCheck.Gen.map asn (QCheck.Gen.int_range 1 70000)

let gen_prefix =
  QCheck.Gen.(
    let* len = int_range 8 32 in
    let* a = int_range 0 0xFFFFFF in
    return (Prefix.make (Ipv4.of_int (a * 256)) len))

let gen_attrs =
  QCheck.Gen.(
    let* path_len = int_range 1 6 in
    let* asns = list_repeat path_len gen_asn in
    let* med = opt (int_range 0 1000) in
    let* lp = opt (int_range 0 500) in
    let* n_comm = int_range 0 4 in
    let* comms =
      list_repeat n_comm
        (let* a = int_range 0 0xFFFF in
         let* v = int_range 0 0xFFFF in
         return (Community.make a v))
    in
    let* nh = int_range 1 0xFFFFFF in
    return
      (Attrs.make ~as_path:(As_path.of_asns asns) ?med ?local_pref:lp
         ~communities:comms ~next_hop:(Ipv4.of_int nh) ()))

let gen_update =
  QCheck.Gen.(
    let* n_w = int_range 0 3 in
    let* withdrawn = list_repeat n_w gen_prefix in
    let* n_n = int_range 0 3 in
    let* nlri = list_repeat n_n gen_prefix in
    let* attrs = gen_attrs in
    let dedup l =
      List.sort_uniq Prefix.compare l |> List.map (fun p -> (0, p))
    in
    let nlri = dedup nlri in
    return
      { Message.withdrawn = dedup withdrawn;
        attrs = (if nlri = [] then None else Some attrs);
        nlri
      })

let prop_update_roundtrip =
  QCheck.Test.make ~name:"wire update roundtrip" ~count:300
    (QCheck.make gen_update) (fun u ->
      let opts = { Wire.four_octet_asn = true; add_path = false } in
      match roundtrip opts (Message.Update u) with
      | Message.Update u' ->
        u'.Message.withdrawn = u.Message.withdrawn
        && u'.Message.nlri = u.Message.nlri
        && (match (u.Message.attrs, u'.Message.attrs) with
           | None, None -> true
           | Some a, Some b -> Attrs.equal a b
           | _ -> false)
      | _ -> false)

(* Fuzz: arbitrary bytes must decode to an error, never raise. *)
let prop_decode_never_raises =
  QCheck.Test.make ~name:"wire decode total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match
        Wire.decode Wire.default_opts (Bytes.of_string s) ~pos:0
      with
      | Ok _ | Error _ -> true)

let prop_decode_corrupted_valid =
  QCheck.Test.make ~name:"wire decode total on corrupted messages" ~count:300
    QCheck.(pair (int_bound 100) (int_bound 255))
    (fun (pos_seed, byte) ->
      let u =
        { Message.withdrawn = [ (0, pfx "10.0.0.0/8") ];
          attrs = Some sample_attrs;
          nlri = [ (0, pfx "184.164.224.0/24") ]
        }
      in
      let b = Wire.encode Wire.default_opts (Message.Update u) in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match Wire.decode Wire.default_opts b ~pos:0 with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* MP-BGP (RFC 4760) attributes, as a v4 speaker sees them *)

let test_mp_transparent_to_v4_speakers () =
  (* A v4-only speaker must parse an UPDATE whose only reachability is
     an MP_REACH_NLRI attribute as a valid (if NLRI-free) UPDATE: the
     incremental-deployment property. The frame is a Wire-encoded
     UPDATE with its v4 NLRI cut off and a hand-built optional
     attribute (flags 0x80, type 14: AFI 2, SAFI 1, a 16-byte next
     hop, no SNPA, one /48) spliced after its attributes. *)
  let opts = Wire.default_opts in
  let v4 =
    Wire.encode opts
      (Message.Update
         { Message.withdrawn = [];
           attrs = Some sample_attrs;
           nlri = [ (0, pfx "10.0.0.0/8") ]
         })
  in
  let attr_len =
    (Char.code (Bytes.get v4 21) lsl 8) lor Char.code (Bytes.get v4 22)
  in
  let mp = Buffer.create 32 in
  Wire.put_u16 mp 2;
  Wire.put_u8 mp 1;
  Wire.put_u8 mp 16;
  Buffer.add_string mp "\x28\x04\x26\x9c";
  Buffer.add_string mp (String.make 11 '\x00');
  Buffer.add_string mp "\x01";
  Wire.put_u8 mp 0;
  Buffer.add_string mp "\x30\x28\x04\x26\x9c\x01\x00";
  let spliced = Buffer.create 128 in
  Buffer.add_subbytes spliced v4 0 (23 + attr_len);
  Wire.put_attr_header spliced ~flags:0x80 ~code:14 (Buffer.length mp);
  Buffer.add_buffer spliced mp;
  let bytes = Buffer.to_bytes spliced in
  let set_u16 off v =
    Bytes.set bytes off (Char.chr (v lsr 8));
    Bytes.set bytes (off + 1) (Char.chr (v land 0xFF))
  in
  set_u16 16 (Bytes.length bytes);
  set_u16 21 (Bytes.length bytes - 23);
  match Wire.decode opts bytes ~pos:0 with
  | Ok (Message.Update u, consumed) ->
    check Alcotest.int "whole message" (Bytes.length bytes) consumed;
    check Alcotest.int "no v4 nlri" 0 (List.length u.Message.nlri);
    check Alcotest.bool "v4 attrs visible" true (u.Message.attrs <> None)
  | _ -> Alcotest.fail "v4 decoder choked on MP update"

(* ------------------------------------------------------------------ *)
(* Update_group *)

let test_update_group_shares_attrs () =
  let a1 = sample_attrs in
  let a2 = Attrs.with_local_pref (Some 7) sample_attrs in
  let announcements =
    [ (pfx "10.0.0.0/24", a1); (pfx "10.0.1.0/24", a1); (pfx "10.0.2.0/24", a2);
      (pfx "10.0.3.0/24", a1) ]
  in
  let groups = Update_group.group announcements in
  check Alcotest.int "two messages" 2 (List.length groups);
  let total_nlri =
    List.fold_left (fun acc u -> acc + List.length u.Message.nlri) 0 groups
  in
  check Alcotest.int "all prefixes present" 4 total_nlri;
  (* each message must encode within the RFC limit *)
  List.iter
    (fun u ->
      let b = Wire.encode Wire.default_opts (Message.Update u) in
      check Alcotest.bool "fits" true (Bytes.length b <= 4096))
    groups

let test_update_group_splits_large () =
  let attrs = sample_attrs in
  let announcements =
    List.init 2000 (fun i ->
        (Prefix.make (Ipv4.of_octets 10 (i / 256) (i mod 256) 0) 24, attrs))
  in
  let groups = Update_group.group announcements in
  check Alcotest.bool "split into several" true (List.length groups > 1);
  List.iter
    (fun u ->
      let b = Wire.encode Wire.default_opts (Message.Update u) in
      check Alcotest.bool "fits 4096" true (Bytes.length b <= 4096);
      (* and they decode back *)
      match Wire.decode Wire.default_opts b ~pos:0 with
      | Ok (Message.Update u', _) ->
        check Alcotest.int "nlri preserved" (List.length u.Message.nlri)
          (List.length u'.Message.nlri)
      | _ -> Alcotest.fail "re-decode failed")
    groups;
  let total =
    List.fold_left (fun acc u -> acc + List.length u.Message.nlri) 0 groups
  in
  check Alcotest.int "no prefix lost" 2000 total;
  check Alcotest.int "message_count agrees" (List.length groups)
    (Update_group.message_count announcements)

(* The UPDATE's two section-length fields count once: a group that
   encodes to exactly 4,096 bytes is one message, and one more prefix
   makes two, each within the limit. The /24s fill the budget left by
   the header and the attributes, and a /16 and a /8 (3 and 2 bytes of
   NLRI) make up the remainder. *)
let test_update_group_fills_4096 () =
  let attrs = sample_attrs in
  let budget = 4096 - 23 - Wire.attrs_length Wire.default_opts attrs in
  let slash24 i = Prefix.make (Ipv4.of_octets 10 (i / 256) (i mod 256) 0) 24 in
  let n24, tail =
    match budget mod 4 with
    | 0 -> (budget / 4, [])
    | 1 -> ((budget / 4) - 1, [ 16; 8 ])
    | 2 -> (budget / 4, [ 8 ])
    | _ -> (budget / 4, [ 16 ])
  in
  let tail =
    List.mapi (fun k len -> Prefix.make (Ipv4.of_octets (20 + k) 0 0 0) len) tail
  in
  let full = List.map (fun p -> (p, attrs)) (List.init n24 slash24 @ tail) in
  let sizes l =
    List.map
      (fun u -> Bytes.length (Wire.encode Wire.default_opts (Message.Update u)))
      (Update_group.group l)
  in
  check Alcotest.(list int) "exactly 4096 bytes, one message" [ 4096 ] (sizes full);
  let more = full @ [ (slash24 n24, attrs) ] in
  let split = sizes more in
  check Alcotest.int "one more prefix makes two" 2 (List.length split);
  List.iter (fun n -> check Alcotest.bool "within 4096" true (n <= 4096)) split

let test_update_group_withdrawals () =
  let prefixes =
    List.init 1500 (fun i ->
        Prefix.make (Ipv4.of_octets 10 (i / 256) (i mod 256) 0) 24)
  in
  let groups = Update_group.group_withdrawals prefixes in
  check Alcotest.bool "split" true (List.length groups >= 2);
  let total =
    List.fold_left
      (fun acc u -> acc + List.length u.Message.withdrawn)
      0 groups
  in
  check Alcotest.int "all withdrawn" 1500 total

(* ------------------------------------------------------------------ *)
(* Decision process *)

let src ?(ebgp = true) ?(rid = "10.0.0.9") a =
  { Route.peer_asn = asn a;
    peer_addr = ip "10.0.0.9";
    peer_router_id = ip rid;
    ebgp
  }

let route ?source ?med ?local_pref ?(origin = Attrs.IGP) ~path p =
  Route.make ?source
    (pfx p)
    (Attrs.make ~origin ~as_path:(As_path.of_asns (List.map asn path))
       ?med ?local_pref ~next_hop:(ip "10.0.0.9") ())

let test_decision_local_pref () =
  let a = route ~source:(src 1) ~local_pref:200 ~path:[ 1; 2; 3 ] "10.0.0.0/8" in
  let b = route ~source:(src 4) ~local_pref:100 ~path:[ 4 ] "10.0.0.0/8" in
  check Alcotest.bool "higher lp wins despite longer path" true
    (Decision.compare a b < 0)

let test_decision_path_length () =
  let a = route ~source:(src 1) ~path:[ 1; 2 ] "10.0.0.0/8" in
  let b = route ~source:(src 4) ~path:[ 4; 5; 6 ] "10.0.0.0/8" in
  check Alcotest.bool "shorter wins" true (Decision.compare a b < 0);
  check Alcotest.(option bool) "best" (Some true)
    (Option.map (Route.equal a) (Decision.best [ b; a ]))

let test_decision_origin () =
  let a = route ~source:(src 1) ~origin:Attrs.IGP ~path:[ 1; 2 ] "10.0.0.0/8" in
  let b =
    route ~source:(src 4) ~origin:Attrs.INCOMPLETE ~path:[ 4; 5 ] "10.0.0.0/8"
  in
  check Alcotest.bool "IGP beats incomplete" true (Decision.compare a b < 0)

let test_decision_med_same_neighbor () =
  let a = route ~source:(src 1) ~med:10 ~path:[ 7; 2 ] "10.0.0.0/8" in
  let b = route ~source:(src 1) ~med:20 ~path:[ 7; 3 ] "10.0.0.0/8" in
  check Alcotest.bool "lower MED wins (same neighbor)" true
    (Decision.compare a b < 0);
  (* different neighbor AS: MED not compared; falls to router id tie *)
  let c = route ~source:(src ~rid:"10.0.0.1" 1) ~med:99 ~path:[ 8; 2 ] "10.0.0.0/8" in
  let d = route ~source:(src ~rid:"10.0.0.2" 1) ~med:1 ~path:[ 9; 3 ] "10.0.0.0/8" in
  check Alcotest.bool "MED ignored across neighbors" true
    (Decision.compare c d < 0)

let test_decision_ebgp_over_ibgp () =
  let a = route ~source:(src ~ebgp:true 1) ~path:[ 1; 2 ] "10.0.0.0/8" in
  let b = route ~source:(src ~ebgp:false 1) ~path:[ 1; 2 ] "10.0.0.0/8" in
  check Alcotest.bool "eBGP wins" true (Decision.compare a b < 0)

let test_decision_local_wins () =
  let local = route ~path:[] "10.0.0.0/8" in
  let learned = route ~source:(src 1) ~local_pref:5000 ~path:[ 1 ] "10.0.0.0/8" in
  check Alcotest.bool "local origin beats learned" true
    (Decision.compare local learned < 0)

let prop_decision_total_on_distinct =
  QCheck.Test.make ~name:"decision antisymmetric" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* a = gen_attrs in
         let* b = gen_attrs in
         return (a, b)))
    (fun (attrs_a, attrs_b) ->
      let p = pfx "10.0.0.0/8" in
      let a = Route.make ~source:(src 11) p attrs_a in
      let b = Route.make ~source:(src ~rid:"10.0.0.10" 12) p attrs_b in
      let ab = Decision.compare a b and ba = Decision.compare b a in
      (ab < 0 && ba > 0) || (ab > 0 && ba < 0) || (ab = 0 && ba = 0))

(* ------------------------------------------------------------------ *)
(* Rib *)

let test_rib_basic () =
  let rib = Rib.create () in
  let p = pfx "10.0.0.0/8" in
  let r1 = route ~source:(src 1) ~path:[ 1; 2; 3 ] "10.0.0.0/8" in
  (match Rib.announce rib ~peer:"p1" r1 with
  | Some c ->
    check Alcotest.bool "current set" true (c.Rib.current <> None)
  | None -> Alcotest.fail "expected change");
  (* worse route: no change *)
  let r2 = route ~source:(src 4) ~path:[ 4; 5; 6; 7 ] "10.0.0.0/8" in
  check Alcotest.bool "worse: no change" true
    (Rib.announce rib ~peer:"p2" r2 = None);
  check Alcotest.int "candidates" 2 (List.length (Rib.candidates rib p));
  (* better route: change *)
  let r3 = route ~source:(src 8) ~path:[ 8 ] "10.0.0.0/8" in
  (match Rib.announce rib ~peer:"p3" r3 with
  | Some c -> check Alcotest.bool "better becomes best" true
      (match c.Rib.current with
      | Some cur -> Route.equal cur r3
      | None -> false)
  | None -> Alcotest.fail "expected change");
  (* withdraw best: falls back *)
  (match Rib.withdraw rib ~peer:"p3" p with
  | Some c ->
    check Alcotest.bool "fallback to r1" true
      (match c.Rib.current with
      | Some cur -> Route.equal cur r1
      | None -> false)
  | None -> Alcotest.fail "expected change on withdraw");
  check Alcotest.int "prefixes" 1 (Rib.prefix_count rib);
  check Alcotest.int "routes" 2 (Rib.route_count rib)

let test_rib_drop_peer () =
  let rib = Rib.create () in
  for i = 0 to 2 do
    ignore
      (Rib.announce rib ~peer:"flaky"
         (route ~source:(src 1) ~path:[ 1; 2 ]
            (Printf.sprintf "10.%d.0.0/16" i)))
  done;
  ignore
    (Rib.announce rib ~peer:"stable"
       (route ~source:(src 9) ~path:[ 9; 2 ] "10.3.0.0/16"));
  let changes = Rib.drop_peer rib ~peer:"flaky" in
  check Alcotest.int "changes for lost prefixes" 3 (List.length changes);
  check Alcotest.bool "all transitions to None" true
    (List.for_all (fun c -> c.Rib.current = None) changes);
  check Alcotest.int "one prefix survives" 1 (Rib.prefix_count rib);
  check Alcotest.(list string) "peers" [ "stable" ] (Rib.peers rib)

let test_rib_lpm () =
  let rib = Rib.create () in
  ignore
    (Rib.announce rib ~peer:"a"
       (route ~source:(src 1) ~path:[ 1 ] "10.0.0.0/8"));
  ignore
    (Rib.announce rib ~peer:"a"
       (route ~source:(src 1) ~path:[ 1; 2 ] "10.1.0.0/16"));
  match Rib.lookup rib (ip "10.1.2.3") with
  | Some r ->
    check Alcotest.string "most specific" "10.1.0.0/16"
      (Prefix.to_string r.Route.prefix)
  | None -> Alcotest.fail "no route"

let test_rib_add_path () =
  (* two routes same peer, distinct path ids coexist *)
  let rib = Rib.create () in
  let r1 =
    Route.make ~source:(src 1) ~path_id:1 (pfx "10.0.0.0/8")
      (Attrs.make ~as_path:(As_path.of_asns [ asn 1; asn 2 ])
         ~next_hop:(ip "10.0.0.9") ())
  in
  let r2 =
    Route.make ~source:(src 1) ~path_id:2 (pfx "10.0.0.0/8")
      (Attrs.make ~as_path:(As_path.of_asns [ asn 1; asn 3; asn 4 ])
         ~next_hop:(ip "10.0.0.9") ())
  in
  ignore (Rib.announce rib ~peer:"mux" r1);
  ignore (Rib.announce rib ~peer:"mux" r2);
  check Alcotest.int "both retained" 2
    (List.length (Rib.candidates rib (pfx "10.0.0.0/8")));
  ignore (Rib.withdraw rib ~peer:"mux" ~path_id:1 (pfx "10.0.0.0/8"));
  check Alcotest.int "one left" 1
    (List.length (Rib.candidates rib (pfx "10.0.0.0/8")))

(* A peer that flaps one prefix forever costs a bounded index (at most
   2 x live + 16 entries): after 100,000 announce/withdraw cycles among
   a few steady routes the whole Rib is still a few hundred words, and
   a drop reports each of the peer's prefixes once, in address order. *)
let test_rib_flap_bound () =
  let rib = Rib.create () in
  List.iter
    (fun p ->
      ignore
        (Rib.announce rib ~peer:"flappy" (route ~source:(src 1) ~path:[ 1 ] p)))
    [ "10.2.0.0/16"; "10.0.0.0/16"; "10.1.0.0/16" ];
  ignore
    (Rib.announce rib ~peer:"steady"
       (route ~source:(src 2) ~path:[ 2; 3 ] "10.9.0.0/16"));
  let flap = route ~source:(src 1) ~path:[ 1 ] "10.9.0.0/16" in
  for _ = 1 to 100_000 do
    ignore (Rib.announce rib ~peer:"flappy" flap);
    ignore (Rib.withdraw rib ~peer:"flappy" (pfx "10.9.0.0/16"))
  done;
  ignore (Rib.announce rib ~peer:"flappy" flap);
  let words = Obj.reachable_words (Obj.repr rib) in
  check Alcotest.bool
    (Printf.sprintf "%d reachable words < 1000" words)
    true (words < 1000);
  check
    Alcotest.(list string)
    "each prefix once, in address order"
    [ "10.0.0.0/16"; "10.1.0.0/16"; "10.2.0.0/16"; "10.9.0.0/16" ]
    (List.map
       (fun c -> Prefix.to_string c.Rib.prefix)
       (Rib.drop_peer rib ~peer:"flappy"))

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_prefix_filter () =
  let map =
    Policy.of_entries
      [ { Policy.seq = 10;
          decision = Policy.Permit;
          conds = [ Policy.Prefix_in [ (pfx "184.164.224.0/19", 19, 24) ] ];
          actions = []
        } ]
  in
  let inside = route ~source:(src 1) ~path:[ 1 ] "184.164.230.0/24" in
  let outside = route ~source:(src 1) ~path:[ 1 ] "8.8.8.0/24" in
  let too_long =
    route ~source:(src 1) ~path:[ 1 ] "184.164.230.128/25"
  in
  check Alcotest.bool "inside permitted" true (Policy.apply map inside <> None);
  check Alcotest.bool "outside denied" true (Policy.apply map outside = None);
  check Alcotest.bool "le bound enforced" true (Policy.apply map too_long = None)

let test_policy_actions () =
  let map =
    Policy.of_entries
      [ { Policy.seq = 10;
          decision = Policy.Permit;
          conds = [];
          actions =
            [ Policy.Set_local_pref 250;
              Policy.Add_community (Community.make 47065 666);
              Policy.Prepend (asn 47065, 2)
            ]
        } ]
  in
  let r = route ~source:(src 1) ~path:[ 1; 2 ] "10.0.0.0/8" in
  match Policy.apply map r with
  | Some r' ->
    check Alcotest.(option int) "lp set" (Some 250)
      r'.Route.attrs.Attrs.local_pref;
    check Alcotest.bool "community added" true
      (Attrs.has_community (Community.make 47065 666) r'.Route.attrs);
    check Alcotest.int "prepended" 4
      (As_path.length r'.Route.attrs.Attrs.as_path)
  | None -> Alcotest.fail "denied"

let test_policy_first_match_wins () =
  let map =
    Policy.of_entries
      [ { Policy.seq = 20;
          decision = Policy.Permit;
          conds = [];
          actions = [ Policy.Set_local_pref 1 ]
        };
        { Policy.seq = 10;
          decision = Policy.Deny;
          conds = [ Policy.Path_contains (asn 666) ];
          actions = []
        }
      ]
  in
  let bad = route ~source:(src 1) ~path:[ 1; 666 ] "10.0.0.0/8" in
  let good = route ~source:(src 1) ~path:[ 1; 2 ] "10.0.0.0/8" in
  check Alcotest.bool "seq 10 denies origin 666" true
    (Policy.apply map bad = None);
  check Alcotest.bool "seq 20 permits rest" true (Policy.apply map good <> None)

let test_policy_default_deny () =
  let map =
    Policy.of_entries
      [ { Policy.seq = 10;
          decision = Policy.Permit;
          conds = [ Policy.Has_community Community.no_export ];
          actions = []
        } ]
  in
  let r = route ~source:(src 1) ~path:[ 1 ] "10.0.0.0/8" in
  check Alcotest.bool "unmatched denied" true (Policy.apply map r = None)

let test_policy_conds () =
  let r = route ~source:(src 1) ~path:[ 1; 64512; 3356 ] "10.0.0.0/8" in
  (* a condition holds iff a one-entry permit map guarded by it
     accepts the route *)
  let holds c r =
    Policy.apply
      (Policy.of_entries
         [ { Policy.seq = 10; decision = Policy.Permit; conds = [ c ]; actions = [] } ])
      r
    <> None
  in
  check Alcotest.bool "path contains" true
    (holds (Policy.Path_contains (asn 3356)) r);
  check Alcotest.bool "not" false
    (holds (Policy.Not (Policy.Path_contains (asn 1))) r);
  check Alcotest.bool "all/any" true
    (holds
       (Policy.All
          [ Policy.Path_contains (asn 64512);
            Policy.Any [ Policy.Path_contains (asn 3356); Policy.Has_community Community.no_export ]
          ])
       r);
  check Alcotest.bool "any of none" false (holds (Policy.Any []) r)

(* ------------------------------------------------------------------ *)
(* Rpki *)

let roa_table =
  Rpki.empty
  |> (fun t -> Rpki.add_roa t ~prefix:(pfx "184.164.230.0/24") (asn 47065))
  |> fun t -> Rpki.add_roa t ~prefix:(pfx "10.0.0.0/8") (asn 100)

let test_rpki_valid () =
  check Alcotest.bool "authorised origin" true
    (Rpki.validate roa_table ~prefix:(pfx "184.164.230.0/24")
       ~origin:(Some (asn 47065))
    = Rpki.Valid);
  check Alcotest.bool "exact prefix" true
    (Rpki.validate roa_table ~prefix:(pfx "10.0.0.0/8") ~origin:(Some (asn 100))
    = Rpki.Valid)

let test_rpki_invalid () =
  (* wrong origin *)
  check Alcotest.bool "wrong origin" true
    (Rpki.validate roa_table ~prefix:(pfx "184.164.230.0/24")
       ~origin:(Some (asn 666))
    = Rpki.Invalid);
  (* too specific: a ROA authorises its own length only *)
  check Alcotest.bool "too specific" true
    (Rpki.validate roa_table ~prefix:(pfx "10.1.0.0/16")
       ~origin:(Some (asn 100))
    = Rpki.Invalid);
  (* AS_SET origin never valid when covered *)
  check Alcotest.bool "no origin" true
    (Rpki.validate roa_table ~prefix:(pfx "10.0.0.0/8") ~origin:None
    = Rpki.Invalid)

let test_rpki_not_found () =
  check Alcotest.bool "uncovered space" true
    (Rpki.validate roa_table ~prefix:(pfx "192.0.2.0/24")
       ~origin:(Some (asn 1))
    = Rpki.Not_found)

let test_rpki_multiple_roas () =
  (* MOAS: two ROAs for one prefix — either origin is valid *)
  let t =
    Rpki.add_roa roa_table ~prefix:(pfx "10.0.0.0/8") (asn 200)
  in
  check Alcotest.bool "first origin" true
    (Rpki.validate t ~prefix:(pfx "10.0.0.0/8") ~origin:(Some (asn 100))
    = Rpki.Valid);
  check Alcotest.bool "second origin" true
    (Rpki.validate t ~prefix:(pfx "10.0.0.0/8") ~origin:(Some (asn 200))
    = Rpki.Valid);
  check Alcotest.bool "a third origin" true
    (Rpki.validate t ~prefix:(pfx "10.0.0.0/8") ~origin:(Some (asn 300))
    = Rpki.Invalid)

(* ------------------------------------------------------------------ *)
(* Dampening *)

let test_dampening_suppression () =
  let d = Dampening.create () in
  let p = pfx "184.164.224.0/24" in
  Dampening.flap d ~now:0.0 ~peer:"c" p;
  check Alcotest.bool "one flap not suppressed" false
    (Dampening.is_suppressed d ~now:0.0 ~peer:"c" p);
  Dampening.flap d ~now:1.0 ~peer:"c" p;
  Dampening.flap d ~now:2.0 ~peer:"c" p;
  check Alcotest.bool "three rapid flaps suppressed" true
    (Dampening.is_suppressed d ~now:2.0 ~peer:"c" p);
  (* penalty decays: after several half-lives it is reusable *)
  check Alcotest.bool "reused after decay" false
    (Dampening.is_suppressed d ~now:(2.0 +. 4.0 *. 900.0) ~peer:"c" p)

let test_dampening_decay_monotonic () =
  let d = Dampening.create () in
  let p = pfx "184.164.224.0/24" in
  Dampening.flap d ~now:0.0 ~peer:"c" p;
  let p1 = Dampening.penalty d ~now:100.0 ~peer:"c" p in
  let p2 = Dampening.penalty d ~now:500.0 ~peer:"c" p in
  let p3 = Dampening.penalty d ~now:2000.0 ~peer:"c" p in
  check Alcotest.bool "monotone decay" true (p1 > p2 && p2 > p3);
  (* half life: penalty halves in 900 s *)
  let ph = Dampening.penalty d ~now:900.0 ~peer:"c" p in
  check Alcotest.bool "half life" true (abs_float (ph -. 500.0) < 1.0)

let test_dampening_reuse_time () =
  let d = Dampening.create () in
  let p = pfx "184.164.224.0/24" in
  List.iter (fun t -> Dampening.flap d ~now:t ~peer:"c" p) [ 0.0; 1.0; 2.0 ];
  match Dampening.reuse_time d ~now:2.0 ~peer:"c" p with
  | Some t ->
    check Alcotest.bool "reuse in the future" true (t > 2.0);
    check Alcotest.bool "not suppressed at reuse time" false
      (Dampening.is_suppressed d ~now:(t +. 1.0) ~peer:"c" p)
  | None -> Alcotest.fail "expected reuse time"

let test_dampening_isolated_keys () =
  let d = Dampening.create () in
  let p = pfx "184.164.224.0/24" in
  List.iter (fun t -> Dampening.flap d ~now:t ~peer:"flappy" p)
    [ 0.0; 0.5; 1.0 ];
  check Alcotest.bool "other client unaffected" false
    (Dampening.is_suppressed d ~now:1.0 ~peer:"calm" p)

(* ------------------------------------------------------------------ *)
(* FSM + Session *)

let test_session_establishment () =
  let engine = Peering_sim.Engine.create () in
  let cfg_a = Fsm.default_config ~local_asn:(asn 47065) ~router_id:(ip "10.0.0.1") in
  let cfg_b = Fsm.default_config ~local_asn:(asn 3356) ~router_id:(ip "10.0.0.2") in
  let s =
    Session.create engine ~a:cfg_a ~b:cfg_b ()
  in
  Session.start s;
  check Alcotest.bool "not yet" false (Session.established s);
  Peering_sim.Engine.run ~until:5.0 engine;
  check Alcotest.bool "established" true (Session.established s)

let test_session_update_delivery () =
  let engine = Peering_sim.Engine.create () in
  let got = ref [] in
  let cfg_a = Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1") in
  let cfg_b = Fsm.default_config ~local_asn:(asn 2) ~router_id:(ip "10.0.0.2") in
  let s =
    Session.create engine
      ~a:cfg_a
      ~b:cfg_b
      ~on_update_b:(fun u -> got := u :: !got)
      ()
  in
  Session.start s;
  Peering_sim.Engine.run ~until:5.0 engine;
  let attrs =
    Attrs.make ~as_path:(As_path.of_asns [ asn 1 ]) ~next_hop:(ip "10.0.0.1") ()
  in
  Session.send_from_a s (Message.update_of_announce (pfx "184.164.224.0/24") attrs);
  Peering_sim.Engine.run ~until:10.0 engine;
  check Alcotest.int "update received" 1 (List.length !got)

let test_session_hold_timer () =
  let engine = Peering_sim.Engine.create () in
  let closed = ref None in
  let cfg_a =
    { (Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1")) with
      Fsm.hold_time = 9
    }
  in
  let cfg_b =
    { (Fsm.default_config ~local_asn:(asn 2) ~router_id:(ip "10.0.0.2")) with
      Fsm.hold_time = 9
    }
  in
  let s =
    Session.create engine
      ~a:cfg_a
      ~b:cfg_b
      ~on_close_b:(fun reason -> closed := Some reason)
      ()
  in
  Session.start s;
  Peering_sim.Engine.run ~until:2.0 engine;
  check Alcotest.bool "up" true (Session.established s);
  (* keepalives flow; session stays up across many hold periods *)
  Peering_sim.Engine.run ~until:100.0 engine;
  check Alcotest.bool "still up with keepalives" true (Session.established s);
  check Alcotest.bool "no close" true (!closed = None)

let test_session_drop () =
  let engine = Peering_sim.Engine.create () in
  let closed_b = ref None in
  let cfg_a = Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1") in
  let cfg_b = Fsm.default_config ~local_asn:(asn 2) ~router_id:(ip "10.0.0.2") in
  let s =
    Session.create engine
      ~a:cfg_a
      ~b:cfg_b
      ~on_close_b:(fun r -> closed_b := Some r)
      ()
  in
  Session.start s;
  Peering_sim.Engine.run ~until:2.0 engine;
  Session.drop s ~reason:"maintenance";
  Peering_sim.Engine.run ~until:4.0 engine;
  check Alcotest.bool "b saw close" true (!closed_b <> None);
  check Alcotest.bool "a idle" true (Fsm.state (Session.a s) = Fsm.Idle)

let test_session_add_path_negotiation () =
  (* both sides offer ADD-PATH: negotiated opts carry it, and updates
     with non-zero path ids survive the wire *)
  let engine = Peering_sim.Engine.create () in
  let caps a =
    [ Capability.Four_octet_asn a; Capability.Add_path Capability.Send_receive ]
  in
  let cfg_a =
    { (Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1")) with
      Fsm.capabilities = caps 1
    }
  in
  let cfg_b =
    { (Fsm.default_config ~local_asn:(asn 2) ~router_id:(ip "10.0.0.2")) with
      Fsm.capabilities = caps 2
    }
  in
  let got = ref [] in
  let s =
    Session.create engine
      ~a:cfg_a
      ~b:cfg_b
      ~on_update_b:(fun u -> got := u :: !got)
      ()
  in
  Session.start s;
  Peering_sim.Engine.run ~until:5.0 engine;
  (match Fsm.negotiated (Session.a s) with
  | Some opts -> check Alcotest.bool "add-path negotiated" true opts.Wire.add_path
  | None -> Alcotest.fail "no negotiated options");
  Session.send_from_a s
    (Message.update_of_announce ~path_id:9 (pfx "184.164.224.0/24")
       (Attrs.make ~as_path:(As_path.of_asns [ asn 1 ])
          ~next_hop:(ip "10.0.0.1") ()));
  Peering_sim.Engine.run ~until:10.0 engine;
  match !got with
  | [ u ] ->
    check Alcotest.(list int) "path id crossed the wire" [ 9 ]
      (List.map fst u.Message.nlri)
  | _ -> Alcotest.fail "update not delivered"

let test_session_one_sided_add_path () =
  (* only one side offers ADD-PATH: must NOT be negotiated *)
  let engine = Peering_sim.Engine.create () in
  let cfg_a =
    { (Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1")) with
      Fsm.capabilities =
        [ Capability.Four_octet_asn 1;
          Capability.Add_path Capability.Send_receive
        ]
    }
  in
  let cfg_b = Fsm.default_config ~local_asn:(asn 2) ~router_id:(ip "10.0.0.2") in
  let s =
    Session.create engine ~a:cfg_a ~b:cfg_b ()
  in
  Session.start s;
  Peering_sim.Engine.run ~until:5.0 engine;
  match Fsm.negotiated (Session.a s) with
  | Some opts ->
    check Alcotest.bool "not negotiated one-sided" false opts.Wire.add_path
  | None -> Alcotest.fail "session did not establish"

let test_fsm_rejects_bad_version () =
  let engine = Peering_sim.Engine.create () in
  let closed = ref false in
  let cfg = Fsm.default_config ~local_asn:(asn 1) ~router_id:(ip "10.0.0.1") in
  let fsm =
    Fsm.create engine cfg
      { Fsm.send = (fun _ -> ());
        on_established = (fun _ -> ());
        on_update = (fun _ -> ());
        on_close = (fun _ -> closed := true)
      }
  in
  Fsm.start fsm;
  Fsm.handle fsm
    (Message.Open
       { Message.version = 3;
         asn = asn 2;
         hold_time = 90;
         router_id = ip "10.0.0.2";
         capabilities = []
       });
  check Alcotest.bool "closed on bad version" true !closed;
  check Alcotest.bool "idle" true (Fsm.state fsm = Fsm.Idle)

(* ------------------------------------------------------------------ *)
(* BMP (RFC 7854) *)

let bmp_peer =
  Bmp.make_peer_header ~addr:(ip "100.65.0.1") ~asn:(asn 65010)
    ~bgp_id:(ip "10.10.0.1") ~time:12.345678 ()

(* Concatenated BMP encodings: a feed fragment. *)
let bmp_feed msgs = Bytes.concat Bytes.empty (List.map Bmp.encode msgs)

let bmp_corpus =
  [ Bmp.Route_monitoring
      { peer = bmp_peer;
        update =
          { Message.withdrawn = [ (0, pfx "203.0.113.0/24") ];
            attrs = Some sample_attrs;
            nlri = [ (0, pfx "184.164.224.0/24"); (0, pfx "184.164.225.0/24") ]
          }
      };
    Bmp.Stats_report
      { peer = bmp_peer;
        stats =
          [ { Bmp.stat_type = 0; stat_value = 3 };
            { Bmp.stat_type = Bmp.stat_routes_adj_rib_in;
              stat_value = 1_000_000_007
            }
          ]
      };
    Bmp.Peer_down { peer = bmp_peer; reason = 2 };
    Bmp.Peer_up
      { peer = bmp_peer;
        local_addr = ip "100.65.0.254";
        local_port = 179;
        remote_port = 42123;
        sent_open =
          { Message.version = 4;
            asn = asn 47065;
            hold_time = 90;
            router_id = ip "10.10.0.254";
            capabilities = [ Capability.Four_octet_asn 47065 ]
          };
        recv_open =
          { Message.version = 4;
            asn = asn 65010;
            hold_time = 180;
            router_id = ip "10.10.0.1";
            capabilities =
              [ Capability.Four_octet_asn 65010; Capability.Route_refresh ]
          }
      };
    Bmp.Initiation { info = [ (2, "amsterdam01"); (1, "peering mux") ] };
    Bmp.Termination { info = [ (0, "shutting down") ] }
  ]

(* Every message type: encode → decode returns the message, consumes
   exactly the frame, re-encodes byte-identically — and the reference
   reader agrees on all of it. *)
let test_bmp_roundtrip () =
  List.iter
    (fun msg ->
      let b = Bmp.encode msg in
      let name = string_of_int (Bmp.msg_type msg) in
      match (Bmp.decode b ~pos:0, Bmp_reference.decode b ~pos:0) with
      | Ok (m, n), Ok (m', n') ->
        check Alcotest.int (name ^ ": consumed") (Bytes.length b) n;
        check Alcotest.int (name ^ ": reference consumed") n n';
        check Alcotest.bool (name ^ ": decoders agree") true (m = m');
        check Alcotest.int (name ^ ": type preserved") (Bmp.msg_type msg)
          (Bmp.msg_type m);
        check Alcotest.bool (name ^ ": re-encode byte-identical") true
          (Bytes.equal b (Bmp.encode m))
      | _ -> Alcotest.failf "%s: decode failed" name)
    bmp_corpus;
  (* encode_all frames a feed fragment that decodes back in order *)
  let feed = bmp_feed bmp_corpus in
  let rec drain pos acc =
    if pos >= Bytes.length feed then List.rev acc
    else
      match Bmp.decode feed ~pos with
      | Ok (m, n) -> drain n (m :: acc)
      | Error e -> Alcotest.failf "feed: %s" (Bmp.error_to_string e)
  in
  check
    Alcotest.(list int)
    "feed preserves order" [ 0; 1; 2; 3; 4; 5 ]
    (List.map Bmp.msg_type (drain 0 []))

let test_bmp_canon_time () =
  List.iter
    (fun t ->
      let c = Bmp.canon_time t in
      check (Alcotest.float 1e-12) "idempotent" c (Bmp.canon_time c);
      check (Alcotest.float 1e-12) "header timestamp is canonical" c
        (Bmp.time (Bmp.make_peer_header ~addr:(ip "10.0.0.1") ~asn:(asn 1) ~time:t ()));
      check Alcotest.bool "within a microsecond" true (Float.abs (c -. t) < 1e-6))
    [ 0.0; 12.345678; 1e6 +. 0.9999995; 3.0000004 ];
  (* peer_of picks out the header on peer-scoped messages only *)
  check Alcotest.bool "peer_of route_monitoring" true
    (Bmp.peer_of (List.hd bmp_corpus) = Some bmp_peer);
  check Alcotest.bool "peer_of initiation" true
    (Bmp.peer_of (Bmp.Initiation { info = [] }) = None)

(* Truncations and single-byte corruptions of valid frames: [Bmp.decode]
   and the reference reader must return the same verdict — identical messages or the
   identical [error] — and never raise. *)
let prop_bmp_reference_agree =
  QCheck.Test.make ~name:"bmp: decode = reference, corrupted" ~count:500
    QCheck.(triple (int_bound 5) (int_bound 300) (int_bound 255))
    (fun (which, pos_seed, byte) ->
      let b = Bytes.copy (Bmp.encode (List.nth bmp_corpus which)) in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match (Bmp.decode b ~pos:0, Bmp_reference.decode b ~pos:0) with
      | Ok (m, n), Ok (m', n') -> m = m' && n = n'
      | Error e, Error e' -> e = e'
      | _ -> false)

let prop_bmp_truncation_agree =
  QCheck.Test.make ~name:"bmp: decode = reference, truncated" ~count:300
    QCheck.(pair (int_bound 5) (int_bound 300))
    (fun (which, len_seed) ->
      let full = Bmp.encode (List.nth bmp_corpus which) in
      let len = len_seed mod Bytes.length full in
      let b = Bytes.sub full 0 len in
      match (Bmp.decode b ~pos:0, Bmp_reference.decode b ~pos:0) with
      | Error Bmp.Truncated, Error Bmp.Truncated -> true
      | Error e, Error e' -> e = e'
      | _ -> false)

let prop_bmp_garbage_total =
  QCheck.Test.make ~name:"bmp: decode total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 120))
    (fun s ->
      let b = Bytes.of_string s in
      match (Bmp.decode b ~pos:0, Bmp_reference.decode b ~pos:0) with
      | Ok (m, n), Ok (m', n') -> m = m' && n = n'
      | Error e, Error e' -> e = e'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The encoders against the byte-at-a-time, buffer-per-section
   reference *)

module Wref = Wire_reference

let gen_u32 = QCheck.Gen.int_range 0 0xFFFF_FFFF

let gen_path_prefix =
  QCheck.Gen.(
    let* id = gen_u32 in
    let* p = gen_prefix in
    let* len = int_range 0 32 in
    return (id, Prefix.make (Prefix.addr p) len))

(* Paths of up to 600 ASNs from the whole 32-bit space (split at 255,
   and AS_TRANS on a 2-octet session), with sets among the sequences. *)
let gen_long_path =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    let* segs =
      list_repeat n
        (let* k = frequency [ (4, int_range 0 6); (1, int_range 250 600) ] in
         let* l = list_repeat k gen_wide_asn in
         oneofl [ As_path.Seq l; As_path.Set l ])
    in
    return (As_path.of_segments segs))

(* Every optional attribute, and community lists long enough (up to
   100, 400 bytes) to need the Extended Length flag. *)
let gen_full_attrs =
  QCheck.Gen.(
    let* origin = oneofl [ Attrs.IGP; Attrs.EGP; Attrs.INCOMPLETE ] in
    let* as_path = gen_long_path in
    let* med = opt gen_u32 in
    let* local_pref = opt gen_u32 in
    let* atomic_aggregate = bool in
    let* aggregator = opt (pair gen_wide_asn (map Ipv4.of_int gen_u32)) in
    let* n = frequency [ (3, int_range 0 4); (1, int_range 60 100) ] in
    let* communities = list_repeat n (map Community.of_int32 gen_u32) in
    let* nh = gen_u32 in
    return
      (Attrs.make ~origin ~as_path ?med ?local_pref ~atomic_aggregate
         ?aggregator ~communities ~next_hop:(Ipv4.of_int nh) ()))

let gen_capability =
  QCheck.Gen.(
    oneof
      [ return Capability.Route_refresh;
        map (fun s -> Capability.Graceful_restart s) (int_range 0 0xFFFF);
        map (fun a -> Capability.Four_octet_asn a) gen_u32;
        map
          (fun m -> Capability.Add_path m)
          (oneofl Capability.[ Receive; Send; Send_receive ])
      ])

let gen_open =
  QCheck.Gen.(
    let* asn = gen_wide_asn in
    let* hold_time = int_range 0 0xFFFF in
    let* rid = gen_u32 in
    let* n = int_range 0 4 in
    let* capabilities = list_repeat n gen_capability in
    return
      { Message.version = 4; asn; hold_time; router_id = Ipv4.of_int rid;
        capabilities
      })

let gen_message =
  QCheck.Gen.(
    oneof
      [ map (fun o -> Message.Open o) gen_open;
        (let* nw = int_range 0 4 in
         let* withdrawn = list_repeat nw gen_path_prefix in
         let* nn = int_range 0 4 in
         let* nlri = list_repeat nn gen_path_prefix in
         let* attrs = opt gen_full_attrs in
         return (Message.Update { withdrawn; attrs; nlri }));
        (let* code = int_range 0 255 in
         let* subcode = int_range 0 255 in
         let* reason = string_size ~gen:printable (int_range 0 40) in
         return (Message.Notification { code; subcode; reason }));
        return Message.Keepalive
      ])

let gen_opts =
  QCheck.Gen.(
    map2
      (fun four_octet_asn add_path -> { Wire.four_octet_asn; add_path })
      bool bool)

let show_bytes b =
  String.concat " "
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let same_bytes what ours ref_ =
  Bytes.equal ours ref_
  || QCheck.Test.fail_reportf "%s differs:\n  new %s\n  ref %s" what
       (show_bytes ours) (show_bytes ref_)

let prop_wire_encode_reference =
  QCheck.Test.make ~name:"encode = reference, wire" ~count:400
    (QCheck.make QCheck.Gen.(triple gen_opts gen_message gen_full_attrs))
    (fun (opts, m, a) ->
      let b = Wire.encode opts m in
      same_bytes "encode" b (Wref.encode opts m)
      && (Wire.message_length opts m = Bytes.length b
         || QCheck.Test.fail_report "message_length")
      && List.for_all
           (fun with_next_hop ->
             let ours = encode_attrs ~with_next_hop opts a in
             same_bytes "put_attrs" ours (Wref.encode_attrs ~with_next_hop opts a)
             && (Wire.attrs_length ~with_next_hop opts a = Bytes.length ours
                || QCheck.Test.fail_report "attrs_length"))
           [ true; false ])

let gen_bmp =
  QCheck.Gen.(
    let* addr = gen_u32 in
    let* pasn = gen_wide_asn in
    let* t = float_range 0.0 2e9 in
    let peer =
      Bmp.make_peer_header ~addr:(Ipv4.of_int addr) ~asn:pasn ~time:t ()
    in
    let gen_info =
      let* n = int_range 0 3 in
      list_repeat n
        (pair (int_range 0 2) (string_size ~gen:printable (int_range 0 20)))
    in
    oneof
      [ (let* nw = int_range 0 3 in
         let* withdrawn = list_repeat nw gen_path_prefix in
         let* nn = int_range 0 3 in
         let* nlri = list_repeat nn gen_path_prefix in
         let* attrs = opt gen_full_attrs in
         return (Bmp.Route_monitoring { peer; update = { withdrawn; attrs; nlri } }));
        (let* n = int_range 0 4 in
         let* stats =
           list_repeat n
             (map2
                (fun stat_type stat_value -> { Bmp.stat_type; stat_value })
                (int_range 0 10) (int_range 0 (1 lsl 40)))
         in
         return (Bmp.Stats_report { peer; stats }));
        map (fun reason -> Bmp.Peer_down { peer; reason }) (int_range 1 6);
        (let* local = gen_u32 in
         let* local_port = int_range 0 0xFFFF in
         let* remote_port = int_range 0 0xFFFF in
         let* sent_open = gen_open in
         let* recv_open = gen_open in
         return
           (Bmp.Peer_up
              { peer; local_addr = Ipv4.of_int local; local_port; remote_port;
                sent_open; recv_open
              }));
        map (fun info -> Bmp.Initiation { info }) gen_info;
        map (fun info -> Bmp.Termination { info }) gen_info
      ])

let prop_bmp_encode_reference =
  QCheck.Test.make ~name:"encode = reference, bmp" ~count:400
    (QCheck.make gen_bmp) (fun m ->
      same_bytes "bmp encode" (Bmp.encode m) (Wref.bmp_encode m))

(* Exact allocation of the BMP codec on one Route Monitoring frame of
   one /24 with a 3-ASN path: Gc.minor_words counts every word. *)
let test_bmp_alloc () =
  let frame =
    Bmp.Route_monitoring
      { peer = bmp_peer;
        update =
          Message.
            { withdrawn = [];
              attrs =
                Some
                  (Attrs.make
                     ~as_path:(As_path.of_asns [ asn 65010; asn 3356; asn 174 ])
                     ~next_hop:(ip "100.65.0.1") ());
              nlri = [ (0, pfx "184.164.224.0/24") ]
            }
      }
  in
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let b = Bmp.encode frame in
  check Alcotest.int "frame bytes" 103 (Bytes.length b);
  let enc = words (fun () -> Bmp.encode frame) in
  let dec = words (fun () -> Bmp.decode b ~pos:0) in
  check Alcotest.bool
    (Printf.sprintf "encode allocates %.0f words, at most 48" enc)
    true (enc <= 48.);
  check Alcotest.bool
    (Printf.sprintf "decode allocates %.0f words, at most 80" dec)
    true (dec <= 80.)


let () =
  Alcotest.run "bgp"
    [ ( "as-path",
        [ tc "prepend" `Quick test_path_prepend;
          tc "set length" `Quick test_path_set_length;
          tc "split at 255" `Quick test_path_split_255;
          tc "prepend onto a full segment" `Quick test_path_prepend_full_segment;
          QCheck_alcotest.to_alcotest prop_as_path_reference
        ] );
      ( "community",
        [ tc "parts" `Quick test_community_parts;
          tc "well-known" `Quick test_community_well_known;
          tc "set ops" `Quick test_community_sets
        ] );
      ( "wire",
        [ tc "keepalive" `Quick test_wire_keepalive;
          tc "open" `Quick test_wire_open;
          tc "open 4-byte asn" `Quick test_wire_open_4byte_asn;
          tc "update" `Quick test_wire_update;
          tc "update add-path" `Quick test_wire_update_add_path;
          tc "notification" `Quick test_wire_notification;
          tc "truncated" `Quick test_wire_truncated;
          tc "bad marker" `Quick test_wire_bad_marker;
          tc "stream" `Quick test_wire_stream;
          tc "decode error values" `Quick test_wire_decode_errors;
          tc "encode_attrs next-hop modes" `Quick
            test_wire_encode_attrs_next_hop;
          QCheck_alcotest.to_alcotest prop_wire_encode_reference;
          QCheck_alcotest.to_alcotest prop_update_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_never_raises;
          QCheck_alcotest.to_alcotest prop_decode_corrupted_valid
        ] );
      ( "mp-bgp",
        [ tc "transparent to v4" `Quick test_mp_transparent_to_v4_speakers
        ] );
      ( "update-group",
        [ tc "shares attrs" `Quick test_update_group_shares_attrs;
          tc "splits large" `Quick test_update_group_splits_large;
          tc "withdrawals" `Quick test_update_group_withdrawals;
          tc "fills 4096 bytes" `Quick test_update_group_fills_4096
        ] );
      ( "decision",
        [ tc "local-pref" `Quick test_decision_local_pref;
          tc "path length" `Quick test_decision_path_length;
          tc "origin" `Quick test_decision_origin;
          tc "med" `Quick test_decision_med_same_neighbor;
          tc "ebgp over ibgp" `Quick test_decision_ebgp_over_ibgp;
          tc "local wins" `Quick test_decision_local_wins;
          QCheck_alcotest.to_alcotest prop_decision_total_on_distinct
        ] );
      ( "rib",
        [ tc "basic" `Quick test_rib_basic;
          tc "drop peer" `Quick test_rib_drop_peer;
          tc "lpm" `Quick test_rib_lpm;
          tc "add-path" `Quick test_rib_add_path;
          tc "flap bound" `Quick test_rib_flap_bound
        ] );
      ( "policy",
        [ tc "prefix filter" `Quick test_policy_prefix_filter;
          tc "actions" `Quick test_policy_actions;
          tc "first match" `Quick test_policy_first_match_wins;
          tc "default deny" `Quick test_policy_default_deny;
          tc "conditions" `Quick test_policy_conds
        ] );
      ( "rpki",
        [ tc "valid" `Quick test_rpki_valid;
          tc "invalid" `Quick test_rpki_invalid;
          tc "not found" `Quick test_rpki_not_found;
          tc "multiple roas" `Quick test_rpki_multiple_roas
        ] );
      ( "dampening",
        [ tc "suppression" `Quick test_dampening_suppression;
          tc "decay" `Quick test_dampening_decay_monotonic;
          tc "reuse time" `Quick test_dampening_reuse_time;
          tc "isolation" `Quick test_dampening_isolated_keys
        ] );
      ( "fsm+session",
        [ tc "establishment" `Quick test_session_establishment;
          tc "update delivery" `Quick test_session_update_delivery;
          tc "keepalives sustain" `Quick test_session_hold_timer;
          tc "drop" `Quick test_session_drop;
          tc "add-path negotiation" `Quick test_session_add_path_negotiation;
          tc "one-sided add-path" `Quick test_session_one_sided_add_path;
          tc "bad version" `Quick test_fsm_rejects_bad_version
        ] );
      ( "bmp",
        [ tc "roundtrip" `Quick test_bmp_roundtrip;
          tc "canon time + peer_of" `Quick test_bmp_canon_time;
          tc "allocation bounds" `Quick test_bmp_alloc;
          QCheck_alcotest.to_alcotest prop_bmp_encode_reference;
          QCheck_alcotest.to_alcotest prop_bmp_reference_agree;
          QCheck_alcotest.to_alcotest prop_bmp_truncation_agree;
          QCheck_alcotest.to_alcotest prop_bmp_garbage_total
        ] )
    ]
