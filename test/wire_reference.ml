(* Reference encoders, for differential tests against [Wire] and [Bmp]:
   byte-at-a-time writers, and one buffer per section, copied into the
   enclosing one once its length is known.

   Same output as [Wire.encode], [Wire.put_attrs] and [Bmp.encode] on
   every input: attributes in ascending code order, a 2-octet session
   transcoding ASNs above 65,535 to AS_TRANS, the Extended Length flag
   on an attribute body past 255 bytes. *)

open Peering_net
open Peering_bgp
open Wire

let as_trans = 23456

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  put_u16 b (v lsr 16);
  put_u16 b (v land 0xFFFF)

let put_asn opts b asn =
  let a = Asn.to_int asn in
  if opts.four_octet_asn then put_u32 b a
  else put_u16 b (if a > 0xFFFF then as_trans else a)

let prefix_byte_len l = (l + 7) / 8

let put_prefix opts b (path_id, p) =
  if opts.add_path then put_u32 b path_id;
  let l = Prefix.len p in
  put_u8 b l;
  let a = Ipv4.to_int (Prefix.addr p) in
  for i = 0 to prefix_byte_len l - 1 do
    put_u8 b ((a lsr (24 - (8 * i))) land 0xFF)
  done

let put_attr_header b ~flags ~code len =
  let flags = if len > 255 then flags lor 0x10 else flags in
  put_u8 b flags;
  put_u8 b code;
  if flags land 0x10 <> 0 then put_u16 b len else put_u8 b len

(* A 4-octet session takes the stored bytes as they are; a 2-octet one
   transcodes each segment, with AS_TRANS for an ASN above 65,535. *)
let put_as_path opts b path =
  if opts.four_octet_asn then begin
    let body = As_path.to_wire path in
    put_attr_header b ~flags:0x40 ~code:2 (String.length body);
    Buffer.add_string b body
  end
  else begin
    let segs =
      List.map
        (function As_path.Set l -> (1, l) | As_path.Seq l -> (2, l))
        (As_path.segments path)
    in
    put_attr_header b ~flags:0x40 ~code:2
      (List.fold_left (fun acc (_, l) -> acc + 2 + (2 * List.length l)) 0 segs);
    List.iter
      (fun (ty, asns) ->
        put_u8 b ty;
        put_u8 b (List.length asns);
        List.iter (put_asn opts b) asns)
      segs
  end

(* The attribute section in a buffer of its own. *)
let attrs_buffer ?(with_next_hop = true) opts (a : Attrs.t) =
  let b = Buffer.create 64 in
  (* ORIGIN, well-known mandatory *)
  put_attr_header b ~flags:0x40 ~code:1 1;
  put_u8 b (Attrs.origin_rank a.origin);
  put_as_path opts b a.as_path;
  (* NEXT_HOP — omitted for MRT RIB_IPV6 entries, where reachability
     lives in an abbreviated MP_REACH_NLRI instead (RFC 6396 §4.3.4) *)
  if with_next_hop then begin
    put_attr_header b ~flags:0x40 ~code:3 4;
    put_u32 b (Ipv4.to_int a.next_hop)
  end;
  (* MED, optional non-transitive *)
  Option.iter
    (fun med ->
      put_attr_header b ~flags:0x80 ~code:4 4;
      put_u32 b med)
    a.med;
  (* LOCAL_PREF *)
  Option.iter
    (fun lp ->
      put_attr_header b ~flags:0x40 ~code:5 4;
      put_u32 b lp)
    a.local_pref;
  if a.atomic_aggregate then put_attr_header b ~flags:0x40 ~code:6 0;
  Option.iter
    (fun (asn, addr) ->
      put_attr_header b ~flags:0xC0 ~code:7 (if opts.four_octet_asn then 8 else 6);
      put_asn opts b asn;
      put_u32 b (Ipv4.to_int addr))
    a.aggregator;
  if a.communities <> [] then begin
    put_attr_header b ~flags:0xC0 ~code:8 (4 * List.length a.communities);
    List.iter (fun c -> put_u32 b (Community.to_int32 c)) a.communities
  end;
  b

let encode_attrs ?with_next_hop opts a =
  Buffer.to_bytes (attrs_buffer ?with_next_hop opts a)

let encode_capability b (cap : Capability.t) =
  match cap with
  | Capability.Route_refresh ->
    put_u8 b 2;
    put_u8 b 0
  | Capability.Graceful_restart secs ->
    put_u8 b 64;
    put_u8 b 2;
    put_u16 b (secs land 0x0FFF)
  | Capability.Four_octet_asn asn ->
    put_u8 b 65;
    put_u8 b 4;
    put_u32 b asn
  | Capability.Add_path mode ->
    put_u8 b 69;
    put_u8 b 4;
    put_u16 b 1 (* AFI IPv4 *);
    put_u8 b 1 (* SAFI unicast *);
    put_u8 b
      (match mode with
      | Capability.Receive -> 1
      | Capability.Send -> 2
      | Capability.Send_receive -> 3)

let encode_open (o : Message.open_msg) =
  let b = Buffer.create 64 in
  put_u8 b o.version;
  let a = Asn.to_int o.asn in
  put_u16 b (if a > 0xFFFF then as_trans else a);
  put_u16 b o.hold_time;
  put_u32 b (Ipv4.to_int o.router_id);
  let caps = Buffer.create 32 in
  List.iter (encode_capability caps) o.capabilities;
  if Buffer.length caps = 0 then put_u8 b 0
  else begin
    (* one optional parameter of type 2 (capabilities) *)
    put_u8 b (Buffer.length caps + 2);
    put_u8 b 2;
    put_u8 b (Buffer.length caps);
    Buffer.add_buffer b caps
  end;
  b

let encode_update opts (u : Message.update) =
  let b = Buffer.create 128 in
  let withdrawn = Buffer.create 32 in
  List.iter (put_prefix opts withdrawn) u.withdrawn;
  put_u16 b (Buffer.length withdrawn);
  Buffer.add_buffer b withdrawn;
  let attrs =
    match u.attrs with
    | Some a -> attrs_buffer opts a
    | None -> Buffer.create 0
  in
  put_u16 b (Buffer.length attrs);
  Buffer.add_buffer b attrs;
  List.iter (put_prefix opts b) u.nlri;
  b

let encode_notification (n : Message.notification) =
  let b = Buffer.create 32 in
  put_u8 b n.code;
  put_u8 b n.subcode;
  Buffer.add_string b n.reason;
  b

let encode opts msg =
  let ty, body =
    match msg with
    | Message.Open o -> (1, encode_open o)
    | Message.Update u -> (2, encode_update opts u)
    | Message.Notification n -> (3, encode_notification n)
    | Message.Keepalive -> (4, Buffer.create 0)
  in
  let b = Buffer.create (19 + Buffer.length body) in
  for _ = 1 to 16 do
    Buffer.add_char b '\xFF'
  done;
  put_u16 b (19 + Buffer.length body);
  put_u8 b ty;
  Buffer.add_buffer b body;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* BMP *)

let bmp_pdu_opts = { four_octet_asn = true; add_path = false }

let bmp_stat_is_u64 ty = ty = 7 || ty = 8

let put_ipv4 b a = put_u32 b (Ipv4.to_int a)

(* 16-byte address field with an IPv4 address in the low 4 bytes
   (flags V bit clear). *)
let put_addr16 b a =
  put_u32 b 0;
  put_u32 b 0;
  put_u32 b 0;
  put_ipv4 b a

let put_peer_header b (h : Bmp.peer_header) =
  put_u8 b 0 (* peer type: global instance *);
  put_u8 b 0 (* flags: IPv4, post-policy bits clear *);
  put_u32 b 0 (* distinguisher, high *);
  put_u32 b 0 (* distinguisher, low *);
  put_addr16 b h.peer_addr;
  put_u32 b (Asn.to_int h.peer_asn);
  put_ipv4 b h.peer_bgp_id;
  put_u32 b h.stamp_s;
  put_u32 b h.stamp_us

let put_info_tlvs b info =
  List.iter
    (fun (ty, v) ->
      put_u16 b ty;
      put_u16 b (String.length v);
      Buffer.add_string b v)
    info

let bmp_encode (m : Bmp.msg) =
  let body = Buffer.create 64 in
  (match m with
  | Route_monitoring { peer; update } ->
    put_peer_header body peer;
    Buffer.add_bytes body (encode bmp_pdu_opts (Message.Update update))
  | Stats_report { peer; stats } ->
    put_peer_header body peer;
    put_u32 body (List.length stats);
    List.iter
      (fun (s : Bmp.stat) ->
        put_u16 body s.stat_type;
        if bmp_stat_is_u64 s.stat_type then begin
          put_u16 body 8;
          put_u32 body (s.stat_value lsr 32);
          put_u32 body (s.stat_value land 0xFFFFFFFF)
        end
        else begin
          put_u16 body 4;
          put_u32 body s.stat_value
        end)
      stats
  | Peer_down { peer; reason } ->
    put_peer_header body peer;
    put_u8 body reason
  | Peer_up { peer; local_addr; local_port; remote_port; sent_open; recv_open }
    ->
    put_peer_header body peer;
    put_addr16 body local_addr;
    put_u16 body local_port;
    put_u16 body remote_port;
    Buffer.add_bytes body (encode bmp_pdu_opts (Message.Open sent_open));
    Buffer.add_bytes body (encode bmp_pdu_opts (Message.Open recv_open))
  | Initiation { info } -> put_info_tlvs body info
  | Termination { info } -> put_info_tlvs body info);
  let out = Buffer.create (Buffer.length body + 6) in
  put_u8 out 3 (* version *);
  put_u32 out (Buffer.length body + 6);
  put_u8 out (Bmp.msg_type m);
  Buffer.add_buffer out body;
  Buffer.to_bytes out
