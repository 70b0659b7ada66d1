open Peering_net
module Wire = Peering_bgp.Wire
module Cursor = Peering_bgp.Wire.Cursor
module Attrs = Peering_bgp.Attrs
module As_path = Peering_bgp.As_path
module Community = Peering_bgp.Community
module Message = Peering_bgp.Message
module Rib = Peering_bgp.Rib
module Route = Peering_bgp.Route
module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph
module Rng = Peering_sim.Rng

(* ------------------------------------------------------------------ *)
(* Types *)

type error =
  | Truncated
  | Bad_record of string
  | Bad_message of Wire.error

let error_to_string = function
  | Truncated -> "truncated MRT record"
  | Bad_record s -> Printf.sprintf "bad MRT record: %s" s
  | Bad_message e -> Printf.sprintf "bad BGP payload: %s" (Wire.error_to_string e)

exception Error of error

type peer_addr = V4 of Ipv4.t | V6 of Ipv6.t

type peer = { bgp_id : Ipv4.t; addr : peer_addr; asn : Asn.t }

type rib_entry = {
  peer_index : int;
  originated : int;
  attrs : Attrs.t;
  next_hop6 : Ipv6.t option;
}

type record =
  | Peer_index_table of {
      collector_id : Ipv4.t;
      view_name : string;
      peers : peer array;
    }
  | Rib_v4 of { seq : int; prefix : Prefix.t; entries : rib_entry list }
  | Rib_v6 of { seq : int; prefix : Prefix6.t; entries : rib_entry list }
  | Bgp4mp of {
      peer_asn : Asn.t;
      local_asn : Asn.t;
      ifindex : int;
      peer_ip : peer_addr;
      local_ip : peer_addr;
      as4 : bool;
      payload : bytes;
    }

type t = { timestamp : int; record : record }

(* MRT type / subtype codes (RFC 6396 §4) *)
let type_table_dump_v2 = 13
let subtype_peer_index_table = 1
let subtype_rib_ipv4_unicast = 2
let subtype_rib_ipv6_unicast = 4
let type_bgp4mp = 16
let subtype_bgp4mp_message = 1
let subtype_bgp4mp_message_as4 = 4

(* TABLE_DUMP_V2 attribute sections always use 4-byte ASNs
   (RFC 6396 §4.3.4), regardless of what the original session spoke. *)
let attr_opts = Wire.{ four_octet_asn = true; add_path = false }

let session_opts_of_as4 as4 = Wire.{ four_octet_asn = as4; add_path = false }

(* ------------------------------------------------------------------ *)
(* Writer, on Wire's writers.  Output is canonical: peers and BGP4MP
   records always use 4-byte ASN forms, attribute sections come from
   [Wire.put_attrs] (ascending code order), so encode ∘ decode is
   the identity on our own dumps.  Every body length is computed
   before the record is written, so a dump is one buffer. *)

let put_ipv4 b a = Wire.put_u32 b (Ipv4.to_int a)

let put_ipv6 b (a : Ipv6.t) =
  Buffer.add_int64_be b a.Ipv6.hi;
  Buffer.add_int64_be b a.Ipv6.lo

(* A v6 prefix in NLRI form: length byte, then the minimal address
   bytes. *)
let put_prefix6 b p =
  Wire.put_u8 b (Prefix6.len p);
  let a = Prefix6.addr p in
  for i = 0 to ((Prefix6.len p + 7) / 8) - 1 do
    let byte =
      if i < 8 then
        Int64.to_int (Int64.shift_right_logical a.Ipv6.hi (56 - (8 * i)))
        land 0xFF
      else
        Int64.to_int (Int64.shift_right_logical a.Ipv6.lo (56 - (8 * (i - 8))))
        land 0xFF
    in
    Wire.put_u8 b byte
  done

let peer_addr_len = function V4 _ -> 4 | V6 _ -> 16

let put_peer_addr b = function
  | V4 a -> put_ipv4 b a
  | V6 a -> put_ipv6 b a

(* type, BGP id, address, 4-byte ASN *)
let peer_len p = 9 + peer_addr_len p.addr

let put_peer b p =
  let ty = (match p.addr with V4 _ -> 0 | V6 _ -> 1) lor 2 in
  Wire.put_u8 b ty;
  put_ipv4 b p.bgp_id;
  put_peer_addr b p.addr;
  Wire.put_u32 b (Asn.to_int p.asn)

(* RFC 6396 §4.3.4: inside a RIB_IPV6 entry the MP_REACH_NLRI
   attribute is abbreviated to next-hop length + next-hop address:
   a 3-byte attribute header and 17 bytes of body. *)
let mp_reach_next_hop_len = 20

let put_mp_reach_next_hop b nh =
  Wire.put_attr_header b ~flags:0x80 ~code:14 17;
  Wire.put_u8 b 16;
  put_ipv6 b nh

let attrs_len ~v6 e =
  Wire.attrs_length ~with_next_hop:(not v6) attr_opts e.attrs
  + if v6 then mp_reach_next_hop_len else 0

(* peer index, originated time, attribute length, attributes *)
let rib_entries_len ~v6 entries =
  List.fold_left (fun n e -> n + 8 + attrs_len ~v6 e) 0 entries

let put_rib_entry ~v6 b e =
  Wire.put_u16 b e.peer_index;
  Wire.put_u32 b e.originated;
  Wire.put_u16 b (attrs_len ~v6 e);
  Wire.put_attrs ~with_next_hop:(not v6) attr_opts b e.attrs;
  if v6 then
    put_mp_reach_next_hop b
      (Option.value e.next_hop6 ~default:(Ipv6.make 0L 0L))

let body_len = function
  | Peer_index_table { view_name; peers; _ } ->
    8 + String.length view_name
    + Array.fold_left (fun n p -> n + peer_len p) 0 peers
  | Rib_v4 { prefix; entries; _ } ->
    7 + ((Prefix.len prefix + 7) / 8) + rib_entries_len ~v6:false entries
  | Rib_v6 { prefix; entries; _ } ->
    7 + ((Prefix6.len prefix + 7) / 8) + rib_entries_len ~v6:true entries
  | Bgp4mp { peer_ip; local_ip; as4; payload; _ } ->
    (if as4 then 8 else 4)
    + 4 + peer_addr_len peer_ip + peer_addr_len local_ip
    + Bytes.length payload

let body_of_record b = function
  | Peer_index_table { collector_id; view_name; peers } ->
    put_ipv4 b collector_id;
    Wire.put_u16 b (String.length view_name);
    Buffer.add_string b view_name;
    Wire.put_u16 b (Array.length peers);
    Array.iter (put_peer b) peers
  | Rib_v4 { seq; prefix; entries } ->
    Wire.put_u32 b seq;
    Wire.encode_prefix b prefix;
    Wire.put_u16 b (List.length entries);
    List.iter (put_rib_entry ~v6:false b) entries
  | Rib_v6 { seq; prefix; entries } ->
    Wire.put_u32 b seq;
    put_prefix6 b prefix;
    Wire.put_u16 b (List.length entries);
    List.iter (put_rib_entry ~v6:true b) entries
  | Bgp4mp { peer_asn; local_asn; ifindex; peer_ip; local_ip; as4; payload }
    ->
    let afi =
      match (peer_ip, local_ip) with
      | V4 _, V4 _ -> 1
      | V6 _, V6 _ -> 2
      | _ -> invalid_arg "Mrt: BGP4MP peer/local address families differ"
    in
    if as4 then begin
      Wire.put_u32 b (Asn.to_int peer_asn);
      Wire.put_u32 b (Asn.to_int local_asn)
    end
    else begin
      Wire.put_u16 b (Asn.to_int peer_asn);
      Wire.put_u16 b (Asn.to_int local_asn)
    end;
    Wire.put_u16 b ifindex;
    Wire.put_u16 b afi;
    put_peer_addr b peer_ip;
    put_peer_addr b local_ip;
    (* the record's PDU, stored encoded *)
    Buffer.add_bytes b payload

let type_subtype = function
  | Peer_index_table _ -> (type_table_dump_v2, subtype_peer_index_table)
  | Rib_v4 _ -> (type_table_dump_v2, subtype_rib_ipv4_unicast)
  | Rib_v6 _ -> (type_table_dump_v2, subtype_rib_ipv6_unicast)
  | Bgp4mp { as4; _ } ->
    ( type_bgp4mp,
      if as4 then subtype_bgp4mp_message_as4 else subtype_bgp4mp_message )

let encode_record b t =
  let ty, sub = type_subtype t.record in
  Wire.put_u32 b t.timestamp;
  Wire.put_u16 b ty;
  Wire.put_u16 b sub;
  Wire.put_u32 b (body_len t.record);
  body_of_record b t.record

let encode records =
  let b = Buffer.create 4096 in
  List.iter (encode_record b) records;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Reader.  Liberal where RFC 6396 allows senders to vary (2-byte-AS
   peers, BGP4MP_MESSAGE vs _AS4), strict about structure: every
   record body must parse exactly to its header length. *)

let u64 c =
  let hi = Cursor.u32 c in
  let lo = Cursor.u32 c in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let read_ipv6 c =
  let hi = u64 c in
  let lo = u64 c in
  Ipv6.make hi lo

(* The inverse of [put_prefix6]; raises [Wire.Error] on a length over
   128. *)
let read_prefix6 c =
  let len = Cursor.u8 c in
  if len > 128 then
    raise (Wire.Error (Wire.Bad_attribute "v6 prefix length > 128"));
  let hi = ref 0L and lo = ref 0L in
  for i = 0 to ((len + 7) / 8) - 1 do
    let byte = Int64.of_int (Cursor.u8 c) in
    if i < 8 then hi := Int64.logor !hi (Int64.shift_left byte (56 - (8 * i)))
    else lo := Int64.logor !lo (Int64.shift_left byte (56 - (8 * (i - 8))))
  done;
  Prefix6.make (Ipv6.make !hi !lo) len

let read_peer c =
  let ty = Cursor.u8 c in
  let bgp_id = Ipv4.of_int (Cursor.u32 c) in
  let addr =
    if ty land 1 = 0 then V4 (Ipv4.of_int (Cursor.u32 c))
    else V6 (read_ipv6 c)
  in
  let asn = if ty land 2 <> 0 then Cursor.u32 c else Cursor.u16 c in
  { bgp_id; addr; asn = Asn.of_int asn }

let decode_peer_index c =
  let collector_id = Ipv4.of_int (Cursor.u32 c) in
  let vlen = Cursor.u16 c in
  let view_name = Bytes.to_string (Cursor.rest (Cursor.slice c vlen)) in
  let n = Cursor.u16 c in
  let peers = Array.init n (fun _ -> read_peer c) in
  Peer_index_table { collector_id; view_name; peers }

(* Scan an attribute section for the abbreviated MP_REACH next hop of
   a RIB_IPV6 entry. *)
let scan_mp_next_hop c =
  let found = ref None in
  while Cursor.remaining c > 0 do
    let flags = Cursor.u8 c in
    let code = Cursor.u8 c in
    let len = if flags land 0x10 <> 0 then Cursor.u16 c else Cursor.u8 c in
    let sub = Cursor.slice c len in
    if code = 14 then begin
      let nh_len = Cursor.u8 sub in
      if nh_len <> 16 && nh_len <> 32 then
        raise (Error (Bad_record "bad MP_REACH next-hop length"));
      found := Some (read_ipv6 sub)
    end
  done;
  !found

(* [c] reads the record body in [buf]. The attributes are decoded in
   place; a RIB_IPV6 entry's next hop is scanned from a second cursor
   over the same bytes. *)
let read_rib_entry ~v6 buf c =
  let peer_index = Cursor.u16 c in
  let originated = Cursor.u32 c in
  let alen = Cursor.u16 c in
  let start = Cursor.pos c in
  let attrs =
    match
      Wire.decode_attrs ~require_next_hop:(not v6) attr_opts
        (Cursor.slice c alen)
    with
    | Result.Error e -> raise (Error (Bad_message e))
    | Ok None -> raise (Error (Bad_record "RIB entry without attributes"))
    | Ok (Some a) -> a
  in
  let next_hop6 =
    if v6 then scan_mp_next_hop (Cursor.of_bytes ~pos:start ~len:alen buf)
    else None
  in
  if v6 && next_hop6 = None then
    raise (Error (Bad_record "RIB_IPV6 entry without MP_REACH next hop"));
  { peer_index; originated; attrs; next_hop6 }

let decode_rib ~v6 buf c =
  let seq = Cursor.u32 c in
  if v6 then begin
    let prefix = read_prefix6 c in
    let n = Cursor.u16 c in
    let entries = List.init n (fun _ -> read_rib_entry ~v6 buf c) in
    Rib_v6 { seq; prefix; entries }
  end
  else begin
    let prefix = Wire.read_prefix c in
    let n = Cursor.u16 c in
    let entries = List.init n (fun _ -> read_rib_entry ~v6 buf c) in
    Rib_v4 { seq; prefix; entries }
  end

let read_addr ~afi c =
  match afi with
  | 1 -> V4 (Ipv4.of_int (Cursor.u32 c))
  | 2 -> V6 (read_ipv6 c)
  | n -> raise (Error (Bad_record (Printf.sprintf "BGP4MP AFI %d" n)))

let decode_bgp4mp ~as4 c =
  let read_asn c =
    Asn.of_int (if as4 then Cursor.u32 c else Cursor.u16 c)
  in
  let peer_asn = read_asn c in
  let local_asn = read_asn c in
  let ifindex = Cursor.u16 c in
  let afi = Cursor.u16 c in
  let peer_ip = read_addr ~afi c in
  let local_ip = read_addr ~afi c in
  let payload = Cursor.rest c in
  Cursor.skip c (Cursor.remaining c);
  Bgp4mp { peer_asn; local_asn; ifindex; peer_ip; local_ip; as4; payload }

let decode buf ~pos =
  try
    let c = Cursor.of_bytes ~pos buf in
    if Cursor.remaining c < 12 then raise (Error Truncated);
    let timestamp = Cursor.u32 c in
    let ty = Cursor.u16 c in
    let sub = Cursor.u16 c in
    let len = Cursor.u32 c in
    let body =
      try Cursor.slice c len with Wire.Error _ -> raise (Error Truncated)
    in
    let record =
      if ty = type_table_dump_v2 then
        if sub = subtype_peer_index_table then decode_peer_index body
        else if sub = subtype_rib_ipv4_unicast then
          decode_rib ~v6:false buf body
        else if sub = subtype_rib_ipv6_unicast then decode_rib ~v6:true buf body
        else
          raise
            (Error (Bad_record (Printf.sprintf "TABLE_DUMP_V2 subtype %d" sub)))
      else if ty = type_bgp4mp then
        if sub = subtype_bgp4mp_message || sub = subtype_bgp4mp_message_as4
        then decode_bgp4mp ~as4:(sub = subtype_bgp4mp_message_as4) body
        else raise (Error (Bad_record (Printf.sprintf "BGP4MP subtype %d" sub)))
      else raise (Error (Bad_record (Printf.sprintf "MRT type %d" ty)))
    in
    if Cursor.remaining body > 0 then
      raise (Error (Bad_record "trailing bytes in record body"));
    Ok ({ timestamp; record }, Cursor.pos c)
  with
  | Error e -> Result.Error e
  | Wire.Error Wire.Truncated -> Result.Error Truncated
  | Wire.Error e -> Result.Error (Bad_message e)

let fold buf ~init ~f =
  let total = Bytes.length buf in
  let rec go acc pos =
    if pos >= total then Ok acc
    else
      match decode buf ~pos with
      | Result.Error e -> Result.Error e
      | Ok (t, next) -> go (f acc t) next
  in
  go init 0

let read_all buf =
  match fold buf ~init:[] ~f:(fun acc t -> t :: acc) with
  | Ok l -> Ok (List.rev l)
  | Result.Error e -> Result.Error e

(* ------------------------------------------------------------------ *)
(* Summary *)

type summary = {
  n_records : int;
  n_peer_index : int;
  n_rib4 : int;
  n_rib6 : int;
  n_bgp4mp : int;
  n_peers : int;
  n_entries : int;
  n_bytes : int;
}

let summarize buf =
  let init =
    { n_records = 0;
      n_peer_index = 0;
      n_rib4 = 0;
      n_rib6 = 0;
      n_bgp4mp = 0;
      n_peers = 0;
      n_entries = 0;
      n_bytes = Bytes.length buf
    }
  in
  fold buf ~init ~f:(fun s t ->
      let s = { s with n_records = s.n_records + 1 } in
      match t.record with
      | Peer_index_table { peers; _ } ->
        { s with
          n_peer_index = s.n_peer_index + 1;
          n_peers = s.n_peers + Array.length peers
        }
      | Rib_v4 { entries; _ } ->
        { s with
          n_rib4 = s.n_rib4 + 1;
          n_entries = s.n_entries + List.length entries
        }
      | Rib_v6 { entries; _ } ->
        { s with
          n_rib6 = s.n_rib6 + 1;
          n_entries = s.n_entries + List.length entries
        }
      | Bgp4mp _ -> { s with n_bgp4mp = s.n_bgp4mp + 1 })

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>records            %d@,\
     peer index tables  %d (%d peers)@,\
     RIB_IPV4_UNICAST   %d@,\
     RIB_IPV6_UNICAST   %d@,\
     BGP4MP messages    %d@,\
     RIB entries        %d@,\
     bytes              %d@]"
    s.n_records s.n_peer_index s.n_peers s.n_rib4 s.n_rib6 s.n_bgp4mp
    s.n_entries s.n_bytes

(* ------------------------------------------------------------------ *)
(* Generators.  Everything below is deterministic in its seed: the RNG
   is an explicit splitmix stream and iteration orders are ascending,
   which is what makes `mrt dump` byte-identical across runs. *)

(* 2014-09-01T00:00:00Z, the paper's era; MRT timestamps are absolute
   seconds and we never read the host clock. *)
let base_time = 1409529600

let rec dedup_adjacent = function
  | a :: (b :: _ as rest) when Asn.equal a b -> dedup_adjacent rest
  | a :: rest -> a :: dedup_adjacent rest
  | [] -> []

let v4_peer i asn =
  { bgp_id = Ipv4.of_int (0xC0000001 + i);
    addr = V4 (Ipv4.of_int (0x0A010001 + i));
    asn
  }

let make_peers ~n =
  Array.init n (fun i -> v4_peer i (Asn.of_int (64500 + i)))

let peers_of_world ?(n = 8) world =
  let transit = Gen.all_transit world in
  let take =
    List.filteri (fun i _ -> i < n) transit |> Array.of_list
  in
  Array.mapi
    (fun i asn ->
      if i = Array.length take - 1 && i > 0 then
        (* last peer is v6-addressed so dumps exercise that peer form *)
        { bgp_id = Ipv4.of_int (0xC0000001 + i);
          addr = V6 (Ipv6.make 0x2001_0db8_0000_0000L (Int64.of_int (i + 1)));
          asn
        }
      else v4_peer i asn)
    take

let peer_v4_addr p =
  match p.addr with V4 a -> a | V6 _ -> Ipv4.of_int 0

let peer_v6_addr i p =
  match p.addr with
  | V6 a -> a
  | V4 _ -> Ipv6.make 0x2001_0db8_0000_ffffL (Int64.of_int (i + 1))

(* Synthetic-but-plausible path attributes for [prefix] as seen from
   [peer]: peer AS, a transit hop drawn from the RNG, the origin. *)
let entry_attrs rng ~vias ~peer ~origin ~next_hop =
  let via = Rng.choice rng vias in
  let as_path = As_path.of_asns (dedup_adjacent [ peer.asn; via; origin ]) in
  let med = if Rng.bool rng then Some (Rng.int rng 200) else None in
  let communities =
    if Rng.int rng 4 = 0 then
      [ Community.of_int32 ((Asn.to_int peer.asn land 0xFFFF) lsl 16 lor 100) ]
    else []
  in
  Attrs.make ~origin:Attrs.IGP ~as_path ?med ~communities ~next_hop ()

let index_table peers =
  { timestamp = base_time;
    record =
      Peer_index_table
        { collector_id = Ipv4.of_int 0xC0A80001;
          view_name = "peering-gen";
          peers
        }
  }

let table_of_world ?(seed = 0) ?(peers = 8) world =
  let parr = peers_of_world ~n:peers world in
  let n_peers = Array.length parr in
  let k = min 2 n_peers in  (* entries per prefix, from rotating peers *)
  let rng = Rng.create (0x6D72_7400 lxor seed) in
  let vias = Array.of_list world.Gen.tier1 in
  let seq = ref 0 in
  let records = ref [] in
  let emit r = records := r :: !records in
  (* v4 RIB: one record per prefix in the graph, ascending AS order *)
  List.iter
    (fun asn ->
      List.iter
        (fun prefix ->
          let entries =
            List.init k (fun j ->
                let i = (!seq + j) mod n_peers in
                let peer = parr.(i) in
                { peer_index = i;
                  originated = base_time - Rng.int rng 86400;
                  attrs =
                    entry_attrs rng ~vias ~peer ~origin:asn
                      ~next_hop:(peer_v4_addr peer);
                  next_hop6 = None
                })
          in
          emit
            { timestamp = base_time;
              record = Rib_v4 { seq = !seq; prefix; entries }
            };
          incr seq)
        (As_graph.prefixes_of world.Gen.graph asn))
    (As_graph.ases world.Gen.graph);
  (* v6 RIB: one /48 per tier-1, so dumps always carry the v6 record
     form even though the synthetic world's prefixes are v4 *)
  List.iteri
    (fun i asn ->
      let prefix =
        Prefix6.make
          (Ipv6.make
             (Int64.logor 0x2001_0db8_0000_0000L (Int64.of_int (i lsl 16)))
             0L)
          48
      in
      let entries =
        List.init k (fun j ->
            let pi = (i + j) mod n_peers in
            let peer = parr.(pi) in
            { peer_index = pi;
              originated = base_time - Rng.int rng 86400;
              attrs =
                entry_attrs rng ~vias ~peer ~origin:asn
                  ~next_hop:(Ipv4.of_int 0);
              next_hop6 = Some (peer_v6_addr pi peer)
            })
      in
      emit
        { timestamp = base_time;
          record = Rib_v6 { seq = !seq; prefix; entries }
        };
      incr seq)
    world.Gen.tier1;
  index_table parr :: List.rev !records

let collector_asn = Asn.of_int 47065 (* the real PEERING ASN *)

let updates_of_world ?(seed = 0) ?limit world =
  let p = (peers_of_world world).(0) in
  let rng = Rng.create (0x6D72_7475 lxor seed) in
  let vias = Array.of_list world.Gen.tier1 in
  let local_ip = V4 (Ipv4.of_int 0x0A01_00FE) in
  let peer_ip =
    match p.addr with V4 _ -> p.addr | V6 _ -> V4 (peer_v4_addr p)
  in
  let records = ref [] in
  let count = ref 0 in
  let emit ~at msg =
    let payload = Wire.encode attr_opts msg in
    records :=
      { timestamp = at;
        record =
          Bgp4mp
            { peer_asn = p.asn;
              local_asn = collector_asn;
              ifindex = 0;
              peer_ip;
              local_ip;
              as4 = true;
              payload
            }
      }
      :: !records
  in
  (try
     List.iter
       (fun asn ->
         List.iter
           (fun prefix ->
             (match limit with
             | Some l when !count >= l -> raise Exit
             | _ -> ());
             let at = base_time + !count in
             let attrs =
               entry_attrs rng ~vias ~peer:p ~origin:asn
                 ~next_hop:(peer_v4_addr p)
             in
             emit ~at
               (Message.Update
                  { withdrawn = []; attrs = Some attrs; nlri = [ (0, prefix) ] });
             (* every 16th prefix also flaps: announce then withdraw *)
             if !count mod 16 = 7 then
               emit ~at:(at + 1)
                 (Message.Update
                    { withdrawn = [ (0, prefix) ]; attrs = None; nlri = [] });
             incr count)
           (As_graph.prefixes_of world.Gen.graph asn))
       (As_graph.ases world.Gen.graph)
   with Exit -> ());
  List.rev !records

(* ------------------------------------------------------------------ *)
(* Replay *)

type load = {
  rib : Rib.t;
  peers : peer array;
  records : int;
  routes4 : int;
  entries6 : int;
  updates : int;
}

let peer_key i = Printf.sprintf "peer%03d" i

(* A PEER_INDEX_TABLE entry as RIB entries use it: the RIB peer key and
   the route source, built once per table rather than once per entry.
   The source is kept as the option [Route.make] takes, so every route
   of a peer shares one block. *)
type indexed_peer = { key : string; source : Route.source option }

let index_peers parr =
  Array.mapi
    (fun i p ->
      { key = peer_key i;
        source =
          Some
            Route.
              { peer_asn = p.asn;
                peer_addr = peer_v4_addr p;
                peer_router_id = p.bgp_id;
                ebgp = true
              }
      })
    parr

let load buf =
  let rib = Rib.create () in
  let peers = ref [||] in
  let indexed = ref [||] in
  let routes4 = ref 0 in
  let entries6 = ref 0 in
  let updates = ref 0 in
  let peer_at i =
    if i >= Array.length !indexed then
      raise (Error (Bad_record (Printf.sprintf "peer index %d out of range" i)));
    (!indexed).(i)
  in
  let apply t =
    match t.record with
    | Peer_index_table { peers = parr; _ } ->
      peers := parr;
      indexed := index_peers parr
    | Rib_v4 { prefix; entries; _ } ->
      List.iter
        (fun e ->
          let p = peer_at e.peer_index in
          ignore
            (Rib.announce rib ~peer:p.key
               (Route.make ?source:p.source prefix e.attrs));
          incr routes4)
        entries
    | Rib_v6 { entries; _ } ->
      (* the mux RIB is v4-only; v6 entries are parsed and counted *)
      List.iter (fun e -> ignore (peer_at e.peer_index); incr entries6)
        entries
    | Bgp4mp { payload; peer_asn; as4; _ } -> (
      let opts = session_opts_of_as4 as4 in
      match Wire.decode opts payload ~pos:0 with
      | Result.Error e -> raise (Error (Bad_message e))
      | Ok (Message.Update u, _) ->
        incr updates;
        let key = "upd/" ^ Asn.to_string peer_asn in
        List.iter
          (fun (path_id, prefix) ->
            ignore (Rib.withdraw rib ~peer:key ~path_id prefix))
          u.Message.withdrawn;
        (match u.Message.attrs with
        | Some attrs ->
          List.iter
            (fun (path_id, prefix) ->
              ignore
                (Rib.announce rib ~peer:key
                   (Route.make ~path_id prefix attrs)))
            u.Message.nlri
        | None -> ())
      | Ok _ -> incr updates)
  in
  try
    match fold buf ~init:0 ~f:(fun n t -> apply t; n + 1) with
    | Result.Error e -> Result.Error e
    | Ok records ->
      Ok
        { rib;
          peers = !peers;
          records;
          routes4 = !routes4;
          entries6 = !entries6;
          updates = !updates
        }
  with Error e -> Result.Error e
