(* Reference reader of the BMP framing (RFC 7854), for differential
   tests against [Bmp.decode].

   It reads the framing by direct byte indexing, not through
   [Wire.Cursor], and carries its own copy of every framing check and
   constant.  It shares nothing with [Bmp.decode] except [Wire.decode]
   for embedded PDUs and the [Bmp] types, so a check dropped from or
   changed in either reader shows as a disagreement on some corrupted
   frame.  Same contract as [Bmp.decode] without [?stop]: the message
   and the position one past its end, or the identical [Bmp.error]. *)

open Peering_net
open Peering_bgp

let version = 3
let hdr_len = 6
let max_len = 1 lsl 20
let pdu_opts = { Wire.four_octet_asn = true; add_path = false }

(* Stat types 7 and 8 are 64-bit gauges; the rest are 32-bit. *)
let stat_is_u64 ty = ty = 7 || ty = 8

exception Fail of Bmp.error
exception Overrun

let fail e = raise (Fail e)

type rd = { rbuf : bytes; mutable rp : int; rlimit : int }

let r8 r =
  if r.rlimit - r.rp < 1 then raise Overrun;
  let v = Char.code (Bytes.get r.rbuf r.rp) in
  r.rp <- r.rp + 1;
  v

let r16 r =
  let a = r8 r in
  let b = r8 r in
  (a lsl 8) lor b

let r32 r =
  let a = r16 r in
  let b = r16 r in
  (a lsl 16) lor b

let rstr r n =
  if n < 0 || r.rlimit - r.rp < n then raise Overrun;
  let s = Bytes.sub_string r.rbuf r.rp n in
  r.rp <- r.rp + n;
  s

let peer_header r : Bmp.peer_header =
  let ptype = r8 r in
  let flags = r8 r in
  let d_hi = r32 r in
  let d_lo = r32 r in
  if ptype <> 0 then
    fail (Bmp.Bad_peer_header (Printf.sprintf "peer type %d" ptype));
  if flags land 0x80 <> 0 then fail (Bmp.Bad_peer_header "IPv6 peer unsupported");
  if flags land 0x7F <> 0 then
    fail (Bmp.Bad_peer_header (Printf.sprintf "flags 0x%02x" flags));
  if d_hi <> 0 || d_lo <> 0 then
    fail (Bmp.Bad_peer_header "nonzero peer distinguisher");
  let a = r32 r in
  let b = r32 r in
  let c = r32 r in
  if a <> 0 || b <> 0 || c <> 0 then
    fail (Bmp.Bad_peer_header "peer address not IPv4-mapped");
  let peer_addr = Ipv4.of_int (r32 r) in
  let peer_asn = Asn.of_int (r32 r) in
  let peer_bgp_id = Ipv4.of_int (r32 r) in
  let stamp_s = r32 r in
  let stamp_us = r32 r in
  if stamp_us >= 1_000_000 then
    fail (Bmp.Bad_peer_header "microseconds out of range");
  { peer_addr; peer_asn; peer_bgp_id; stamp_s; stamp_us }

(* The embedded PDU at the read position, which must end inside the
   message, and exactly at its end when [exact]. *)
let embedded_pdu r ~exact =
  match Wire.decode pdu_opts r.rbuf ~pos:r.rp with
  | Error e -> fail (Bmp.Bad_payload e)
  | Ok (m, pdu_end) ->
    if pdu_end > r.rlimit then fail (Bmp.Bad_msg "embedded PDU overruns message");
    if exact && pdu_end < r.rlimit then fail (Bmp.Bad_msg "trailing bytes");
    r.rp <- pdu_end;
    m

let strict_end r = if r.rp <> r.rlimit then fail (Bmp.Bad_msg "trailing bytes")

let info_tlvs r =
  let rec go acc =
    if r.rp = r.rlimit then List.rev acc
    else
      let ty = r16 r in
      let l = r16 r in
      go ((ty, rstr r l) :: acc)
  in
  go []

let stats_report r peer =
  let n = r32 r in
  if n > 0xFFFF then fail (Bmp.Bad_msg "stat count");
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let stat_type = r16 r in
      let slen = r16 r in
      let want = if stat_is_u64 stat_type then 8 else 4 in
      if slen <> want then
        fail (Bmp.Bad_msg (Printf.sprintf "stat %d length %d" stat_type slen));
      let stat_value =
        if slen = 8 then
          let hi = r32 r in
          (hi lsl 32) lor r32 r
        else r32 r
      in
      go ({ Bmp.stat_type; stat_value } :: acc) (k - 1)
  in
  let stats = go [] n in
  strict_end r;
  Bmp.Stats_report { peer; stats }

let peer_up r peer =
  let a = r32 r in
  let b = r32 r in
  let c = r32 r in
  if a <> 0 || b <> 0 || c <> 0 then
    fail (Bmp.Bad_msg "local address not IPv4-mapped");
  let local_addr = Ipv4.of_int (r32 r) in
  let local_port = r16 r in
  let remote_port = r16 r in
  let open_pdu ~exact =
    match embedded_pdu r ~exact with
    | Message.Open o -> o
    | _ -> fail (Bmp.Bad_msg "embedded PDU is not an OPEN")
  in
  let sent_open = open_pdu ~exact:false in
  let recv_open = open_pdu ~exact:true in
  Bmp.Peer_up
    { peer; local_addr; local_port; remote_port; sent_open; recv_open }

let body r ty =
  match ty with
  | 0 -> (
    let peer = peer_header r in
    match embedded_pdu r ~exact:true with
    | Message.Update update -> Bmp.Route_monitoring { peer; update }
    | _ -> fail (Bmp.Bad_msg "embedded PDU is not an UPDATE"))
  | 1 -> stats_report r (peer_header r)
  | 2 ->
    let peer = peer_header r in
    let reason = r8 r in
    if reason < 1 || reason > 6 then
      fail (Bmp.Bad_msg (Printf.sprintf "peer-down reason %d" reason));
    strict_end r;
    Bmp.Peer_down { peer; reason }
  | 3 -> peer_up r (peer_header r)
  | 4 -> Bmp.Initiation { info = info_tlvs r }
  | _ -> Bmp.Termination { info = info_tlvs r }

let decode buf ~pos =
  let total = Bytes.length buf in
  if pos < 0 || pos > total then invalid_arg "Bmp_reference.decode: bad position";
  let byte i = Char.code (Bytes.get buf (pos + i)) in
  if total - pos < hdr_len then Error Bmp.Truncated
  else if byte 0 <> version then Error (Bmp.Bad_version (byte 0))
  else
    let len = (byte 1 lsl 24) lor (byte 2 lsl 16) lor (byte 3 lsl 8) lor byte 4 in
    if len < hdr_len || len > max_len then Error (Bmp.Bad_length len)
    else if byte 5 > 5 then Error (Bmp.Bad_type (byte 5))
    else if total - pos < len then Error Bmp.Truncated
    else
      let r = { rbuf = buf; rp = pos + hdr_len; rlimit = pos + len } in
      match body r (byte 5) with
      | m -> Ok (m, pos + len)
      | exception Fail e -> Error e
      | exception Overrun -> Error (Bmp.Bad_msg "body overrun")
