open Peering_net

let version = 3
let hdr_len = 6

(* Generous but finite: a mux Route Monitoring frame is one UPDATE,
   far below this; anything larger is a corrupt length field. *)
let max_len = 1 lsl 20

let pdu_opts = Wire.{ four_octet_asn = true; add_path = false }

type peer_header = {
  peer_addr : Ipv4.t;
  peer_asn : Asn.t;
  peer_bgp_id : Ipv4.t;
  stamp_s : int;
  stamp_us : int;
}

let split_time t =
  let t = if t < 0.0 then 0.0 else t in
  let s = Float.floor t in
  let us = int_of_float (Float.round ((t -. s) *. 1e6)) in
  if us >= 1_000_000 then (int_of_float s + 1, 0) else (int_of_float s, us)

let make_peer_header ~addr ~asn ?bgp_id ~time () =
  let stamp_s, stamp_us = split_time time in
  { peer_addr = addr;
    peer_asn = asn;
    peer_bgp_id = Option.value bgp_id ~default:addr;
    stamp_s;
    stamp_us
  }

let time h = float_of_int h.stamp_s +. (float_of_int h.stamp_us /. 1e6)

let canon_time t =
  let s, us = split_time t in
  float_of_int s +. (float_of_int us /. 1e6)

let adj_rib_dump tables =
  tables
  |> List.filter (fun (_, m) -> not (Prefix.Map.is_empty m))
  |> List.map (fun (asn, m) ->
         ( asn,
           List.map
             (fun (pfx, r) ->
               (pfx, { r with Route.learned_at = canon_time r.Route.learned_at }))
             (Prefix.Map.bindings m) ))
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let rib_digest dump =
  Digest.to_hex (Digest.string (Marshal.to_string dump [ Marshal.No_sharing ]))

type stat = { stat_type : int; stat_value : int }

let stat_routes_adj_rib_in = 7
let stat_loc_rib = 8

(* Stat types 7 and 8 are 64-bit gauges on the wire; everything else
   in RFC 7854 §4.8 is a 32-bit counter. *)
let stat_is_u64 ty = ty = stat_routes_adj_rib_in || ty = stat_loc_rib

type msg =
  | Route_monitoring of { peer : peer_header; update : Message.update }
  | Stats_report of { peer : peer_header; stats : stat list }
  | Peer_down of { peer : peer_header; reason : int }
  | Peer_up of {
      peer : peer_header;
      local_addr : Ipv4.t;
      local_port : int;
      remote_port : int;
      sent_open : Message.open_msg;
      recv_open : Message.open_msg;
    }
  | Initiation of { info : (int * string) list }
  | Termination of { info : (int * string) list }

let msg_type = function
  | Route_monitoring _ -> 0
  | Stats_report _ -> 1
  | Peer_down _ -> 2
  | Peer_up _ -> 3
  | Initiation _ -> 4
  | Termination _ -> 5

let peer_of = function
  | Route_monitoring { peer; _ }
  | Stats_report { peer; _ }
  | Peer_down { peer; _ }
  | Peer_up { peer; _ } ->
    Some peer
  | Initiation _ | Termination _ -> None

type error =
  | Truncated
  | Bad_version of int
  | Bad_type of int
  | Bad_length of int
  | Bad_peer_header of string
  | Bad_msg of string
  | Bad_payload of Wire.error

let error_to_string = function
  | Truncated -> "truncated BMP message"
  | Bad_version v -> Printf.sprintf "bad BMP version %d" v
  | Bad_type t -> Printf.sprintf "bad BMP message type %d" t
  | Bad_length l -> Printf.sprintf "bad BMP message length %d" l
  | Bad_peer_header s -> Printf.sprintf "bad per-peer header: %s" s
  | Bad_msg s -> Printf.sprintf "bad BMP message body: %s" s
  | Bad_payload e ->
    Printf.sprintf "bad embedded BGP PDU: %s" (Wire.error_to_string e)

exception Fail of error

let fail e = raise (Fail e)

(* ------------------------------------------------------------------ *)
(* Encoder, on Wire's writers.  The body's length is computed first,
   so the common header, the per-peer header and any embedded PDU go
   into one buffer in one pass. *)

let put_ipv4 b a = Wire.put_u32 b (Ipv4.to_int a)

(* The 12 zero bytes that IPv4-map an address into a 16-byte field
   (flags V bit clear). *)
let v4_mapped = String.make 12 '\000'

(* Peer type 0 (global instance), flags 0 (IPv4, pre-policy), a zero
   8-byte distinguisher. *)
let global_v4_peer = String.make 10 '\000'

let peer_header_len = 42

let put_addr16 b a =
  Buffer.add_string b v4_mapped;
  put_ipv4 b a

let put_peer_header b h =
  Buffer.add_string b global_v4_peer;
  put_addr16 b h.peer_addr;
  Wire.put_u32 b (Asn.to_int h.peer_asn);
  put_ipv4 b h.peer_bgp_id;
  Wire.put_u32 b h.stamp_s;
  Wire.put_u32 b h.stamp_us

let tlvs_len info =
  List.fold_left (fun n (_, v) -> n + 4 + String.length v) 0 info

let rec put_tlvs b = function
  | [] -> ()
  | (ty, v) :: rest ->
    Wire.put_u16 b ty;
    Wire.put_u16 b (String.length v);
    Buffer.add_string b v;
    put_tlvs b rest

let stat_len s = if stat_is_u64 s.stat_type then 12 else 8

let rec put_stats b = function
  | [] -> ()
  | s :: rest ->
    Wire.put_u16 b s.stat_type;
    if stat_is_u64 s.stat_type then begin
      Wire.put_u16 b 8;
      Wire.put_u32 b (s.stat_value lsr 32);
      Wire.put_u32 b (s.stat_value land 0xFFFFFFFF)
    end
    else begin
      Wire.put_u16 b 4;
      Wire.put_u32 b s.stat_value
    end;
    put_stats b rest

(* A buffer sized for the whole message, holding its common header. *)
let start m body_len =
  let b = Buffer.create (hdr_len + body_len) in
  Wire.put_u8 b version;
  Wire.put_u32 b (hdr_len + body_len);
  Wire.put_u8 b (msg_type m);
  b

let encode m =
  let b =
    match m with
    | Route_monitoring { peer; update } ->
      let pdu = Message.Update update in
      let b = start m (peer_header_len + Wire.message_length pdu_opts pdu) in
      put_peer_header b peer;
      Wire.put_message pdu_opts b pdu;
      b
    | Stats_report { peer; stats } ->
      let b =
        start m
          (List.fold_left (fun n s -> n + stat_len s) (peer_header_len + 4) stats)
      in
      put_peer_header b peer;
      Wire.put_u32 b (List.length stats);
      put_stats b stats;
      b
    | Peer_down { peer; reason } ->
      let b = start m (peer_header_len + 1) in
      put_peer_header b peer;
      Wire.put_u8 b reason;
      b
    | Peer_up
        { peer; local_addr; local_port; remote_port; sent_open; recv_open } ->
      let sent = Message.Open sent_open and recv = Message.Open recv_open in
      (* the per-peer header, the local address, both ports, both OPENs *)
      let b =
        start m
          (peer_header_len + 20
          + Wire.message_length pdu_opts sent
          + Wire.message_length pdu_opts recv)
      in
      put_peer_header b peer;
      put_addr16 b local_addr;
      Wire.put_u16 b local_port;
      Wire.put_u16 b remote_port;
      Wire.put_message pdu_opts b sent;
      Wire.put_message pdu_opts b recv;
      b
    | Initiation { info } | Termination { info } ->
      let b = start m (tlvs_len info) in
      put_tlvs b info;
      b
  in
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Decoder, on Wire's Cursor.  The readers are top-level functions, so
   decoding allocates the decoded message and no closures. *)

module Cursor = Wire.Cursor

let peer_header c =
  let ptype = Cursor.u8 c in
  let flags = Cursor.u8 c in
  let d_hi = Cursor.u32 c in
  let d_lo = Cursor.u32 c in
  if ptype <> 0 then fail (Bad_peer_header (Printf.sprintf "peer type %d" ptype));
  if flags land 0x80 <> 0 then fail (Bad_peer_header "IPv6 peer unsupported");
  if flags land 0x7F <> 0 then
    fail (Bad_peer_header (Printf.sprintf "flags 0x%02x" flags));
  if d_hi <> 0 || d_lo <> 0 then
    fail (Bad_peer_header "nonzero peer distinguisher");
  let a = Cursor.u32 c in
  let b = Cursor.u32 c in
  let c3 = Cursor.u32 c in
  if a <> 0 || b <> 0 || c3 <> 0 then
    fail (Bad_peer_header "peer address not IPv4-mapped");
  let addr = Ipv4.of_int (Cursor.u32 c) in
  let asn = Asn.of_int (Cursor.u32 c) in
  let bgp_id = Ipv4.of_int (Cursor.u32 c) in
  let stamp_s = Cursor.u32 c in
  let stamp_us = Cursor.u32 c in
  if stamp_us >= 1_000_000 then fail (Bad_peer_header "microseconds out of range");
  { peer_addr = addr; peer_asn = asn; peer_bgp_id = bgp_id; stamp_s; stamp_us }

(* An embedded PDU must end inside the message, at [body_end], and
   exactly there when [exact]. *)
let embedded_pdu buf c ~body_end ~exact =
  let at = Cursor.pos c in
  match Wire.decode pdu_opts buf ~pos:at with
  | Error e -> fail (Bad_payload e)
  | Ok (m, pdu_end) ->
    if pdu_end > body_end then fail (Bad_msg "embedded PDU overruns message");
    if exact && pdu_end < body_end then fail (Bad_msg "trailing bytes");
    Cursor.skip c (pdu_end - at);
    m

let embedded_open buf c ~body_end ~exact =
  match embedded_pdu buf c ~body_end ~exact with
  | Message.Open o -> o
  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")

let strict_end c = if Cursor.remaining c <> 0 then fail (Bad_msg "trailing bytes")

let rec info_tlvs c acc =
  if Cursor.remaining c = 0 then List.rev acc
  else
    let ty = Cursor.u16 c in
    let l = Cursor.u16 c in
    let v = Bytes.to_string (Cursor.rest (Cursor.slice c l)) in
    info_tlvs c ((ty, v) :: acc)

let rec stats c n acc =
  if n = 0 then List.rev acc
  else
    let sty = Cursor.u16 c in
    let slen = Cursor.u16 c in
    if slen <> (if stat_is_u64 sty then 8 else 4) then
      fail (Bad_msg (Printf.sprintf "stat %d length %d" sty slen));
    let v =
      if slen = 8 then
        let hi = Cursor.u32 c in
        let lo = Cursor.u32 c in
        (hi lsl 32) lor lo
      else Cursor.u32 c
    in
    stats c (n - 1) ({ stat_type = sty; stat_value = v } :: acc)

let body ty buf c ~body_end =
  match ty with
  | 0 -> (
    let peer = peer_header c in
    match embedded_pdu buf c ~body_end ~exact:true with
    | Message.Update update -> Route_monitoring { peer; update }
    | _ -> fail (Bad_msg "embedded PDU is not an UPDATE"))
  | 1 ->
    let peer = peer_header c in
    let n = Cursor.u32 c in
    if n > 0xFFFF then fail (Bad_msg "stat count");
    let stats = stats c n [] in
    strict_end c;
    Stats_report { peer; stats }
  | 2 ->
    let peer = peer_header c in
    let reason = Cursor.u8 c in
    if reason < 1 || reason > 6 then
      fail (Bad_msg (Printf.sprintf "peer-down reason %d" reason));
    strict_end c;
    Peer_down { peer; reason }
  | 3 ->
    let peer = peer_header c in
    let a = Cursor.u32 c in
    let b = Cursor.u32 c in
    let c3 = Cursor.u32 c in
    if a <> 0 || b <> 0 || c3 <> 0 then
      fail (Bad_msg "local address not IPv4-mapped");
    let local_addr = Ipv4.of_int (Cursor.u32 c) in
    let local_port = Cursor.u16 c in
    let remote_port = Cursor.u16 c in
    let sent_open = embedded_open buf c ~body_end ~exact:false in
    let recv_open = embedded_open buf c ~body_end ~exact:true in
    Peer_up { peer; local_addr; local_port; remote_port; sent_open; recv_open }
  | 4 -> Initiation { info = info_tlvs c [] }
  | 5 -> Termination { info = info_tlvs c [] }
  | _ -> assert false

let decode ?stop buf ~pos =
  let total = Option.value stop ~default:(Bytes.length buf) in
  if pos < 0 || pos > total || total > Bytes.length buf then
    invalid_arg "Bmp.decode: bad position";
  if total - pos < hdr_len then Error Truncated
  else begin
    let hc = Cursor.of_bytes ~pos ~len:hdr_len buf in
    let v = Cursor.u8 hc in
    if v <> version then Error (Bad_version v)
    else
      let len = Cursor.u32 hc in
      if len < hdr_len || len > max_len then Error (Bad_length len)
      else
        let ty = Cursor.u8 hc in
        if ty > 5 then Error (Bad_type ty)
        else if total - pos < len then Error Truncated
        else begin
          let body_end = pos + len in
          let c = Cursor.of_bytes ~pos:(pos + hdr_len) ~len:(len - hdr_len) buf in
          try Ok (body ty buf c ~body_end, body_end) with
          | Fail e -> Error e
          | Wire.Error Wire.Truncated -> Error (Bad_msg "body overrun")
        end
  end
