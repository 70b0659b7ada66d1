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

let msg_type_name = function
  | 0 -> "route_monitoring"
  | 1 -> "stats_report"
  | 2 -> "peer_down"
  | 3 -> "peer_up"
  | 4 -> "initiation"
  | 5 -> "termination"
  | _ -> "unknown"

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
(* Encoder *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  put_u16 b (v lsr 16);
  put_u16 b (v land 0xFFFF)

let put_u64 b v =
  put_u32 b (v lsr 32);
  put_u32 b (v land 0xFFFFFFFF)

let put_ipv4 b a = put_u32 b (Ipv4.to_int a)

(* 16-byte address field with an IPv4 address in the low 4 bytes
   (flags V bit clear). *)
let put_addr16 b a =
  put_u32 b 0;
  put_u32 b 0;
  put_u32 b 0;
  put_ipv4 b a

let put_peer_header b h =
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

let encode m =
  let body = Buffer.create 64 in
  (match m with
  | Route_monitoring { peer; update } ->
    put_peer_header body peer;
    Buffer.add_bytes body (Wire.encode pdu_opts (Message.Update update))
  | Stats_report { peer; stats } ->
    put_peer_header body peer;
    put_u32 body (List.length stats);
    List.iter
      (fun s ->
        put_u16 body s.stat_type;
        if stat_is_u64 s.stat_type then begin
          put_u16 body 8;
          put_u64 body s.stat_value
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
    Buffer.add_bytes body (Wire.encode pdu_opts (Message.Open sent_open));
    Buffer.add_bytes body (Wire.encode pdu_opts (Message.Open recv_open))
  | Initiation { info } -> put_info_tlvs body info
  | Termination { info } -> put_info_tlvs body info);
  let out = Buffer.create (Buffer.length body + hdr_len) in
  put_u8 out version;
  put_u32 out (Buffer.length body + hdr_len);
  put_u8 out (msg_type m);
  Buffer.add_buffer out body;
  Buffer.to_bytes out

let encode_all msgs =
  let b = Buffer.create 256 in
  List.iter (fun m -> Buffer.add_bytes b (encode m)) msgs;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Shared body logic.  Each decoder supplies its own reads; the check
   sequence below is written out twice, once per path, and must stay
   in lockstep — the corruption corpus in @mrt-roundtrip diffs the two
   on every truncation and byte flip. *)

let check_peer_flags ~ptype ~flags ~d_hi ~d_lo =
  if ptype <> 0 then
    fail (Bad_peer_header (Printf.sprintf "peer type %d" ptype));
  if flags land 0x80 <> 0 then fail (Bad_peer_header "IPv6 peer unsupported");
  if flags land 0x7F <> 0 then
    fail (Bad_peer_header (Printf.sprintf "flags 0x%02x" flags));
  if d_hi <> 0 || d_lo <> 0 then
    fail (Bad_peer_header "nonzero peer distinguisher")

let check_addr16 ~what ~a ~b ~c =
  if a <> 0 || b <> 0 || c <> 0 then
    fail (Bad_msg (Printf.sprintf "%s not IPv4-mapped" what))

let check_stamp_us us =
  if us >= 1_000_000 then fail (Bad_peer_header "microseconds out of range")

let check_peer_down_reason r =
  if r < 1 || r > 6 then
    fail (Bad_msg (Printf.sprintf "peer-down reason %d" r))

let stat_value_len ty len =
  if stat_is_u64 ty then begin
    if len <> 8 then fail (Bad_msg (Printf.sprintf "stat %d length %d" ty len))
  end
  else if len <> 4 then
    fail (Bad_msg (Printf.sprintf "stat %d length %d" ty len))

(* An embedded PDU decoded by [wire_decode] must land exactly on
   [want_end] when [exact], and never beyond it. *)
let check_pdu_end ~exact ~want_end got_end =
  if got_end > want_end then fail (Bad_msg "embedded PDU overruns message");
  if exact && got_end < want_end then fail (Bad_msg "trailing bytes")

(* ------------------------------------------------------------------ *)
(* Cursor-path decoder *)

let decode ?stop buf ~pos =
  let total = Option.value stop ~default:(Bytes.length buf) in
  if pos < 0 || pos > total || total > Bytes.length buf then
    invalid_arg "Bmp.decode: bad position";
  if total - pos < hdr_len then Error Truncated
  else begin
    let hc = Wire.Cursor.of_bytes ~pos ~len:hdr_len buf in
    let v = Wire.Cursor.u8 hc in
    if v <> version then Error (Bad_version v)
    else
      let len = Wire.Cursor.u32 hc in
      if len < hdr_len || len > max_len then Error (Bad_length len)
      else
        let ty = Wire.Cursor.u8 hc in
        if ty > 5 then Error (Bad_type ty)
        else if total - pos < len then Error Truncated
        else begin
          let body_end = pos + len in
          let c = Wire.Cursor.of_bytes ~pos:(pos + hdr_len) ~len:(len - hdr_len) buf in
          let peer_header () =
            let ptype = Wire.Cursor.u8 c in
            let flags = Wire.Cursor.u8 c in
            let d_hi = Wire.Cursor.u32 c in
            let d_lo = Wire.Cursor.u32 c in
            check_peer_flags ~ptype ~flags ~d_hi ~d_lo;
            let a = Wire.Cursor.u32 c in
            let b = Wire.Cursor.u32 c in
            let c3 = Wire.Cursor.u32 c in
            if a <> 0 || b <> 0 || c3 <> 0 then
              fail (Bad_peer_header "peer address not IPv4-mapped");
            let addr = Ipv4.of_int (Wire.Cursor.u32 c) in
            let asn = Asn.of_int (Wire.Cursor.u32 c) in
            let bgp_id = Ipv4.of_int (Wire.Cursor.u32 c) in
            let stamp_s = Wire.Cursor.u32 c in
            let stamp_us = Wire.Cursor.u32 c in
            check_stamp_us stamp_us;
            { peer_addr = addr; peer_asn = asn; peer_bgp_id = bgp_id;
              stamp_s; stamp_us
            }
          in
          let embedded_pdu ~exact =
            let at = Wire.Cursor.pos c in
            match Wire.decode pdu_opts buf ~pos:at with
            | Error e -> fail (Bad_payload e)
            | Ok (m, pdu_end) ->
              check_pdu_end ~exact ~want_end:body_end pdu_end;
              Wire.Cursor.skip c (pdu_end - at);
              m
          in
          let strict_end () =
            if Wire.Cursor.remaining c <> 0 then fail (Bad_msg "trailing bytes")
          in
          let info_tlvs () =
            let rec go acc =
              if Wire.Cursor.remaining c = 0 then List.rev acc
              else
                let ty = Wire.Cursor.u16 c in
                let l = Wire.Cursor.u16 c in
                let v = Bytes.to_string (Wire.Cursor.rest (Wire.Cursor.slice c l)) in
                go ((ty, v) :: acc)
            in
            go []
          in
          try
            let m =
              match ty with
              | 0 ->
                let peer = peer_header () in
                (match embedded_pdu ~exact:true with
                | Message.Update u -> Route_monitoring { peer; update = u }
                | _ -> fail (Bad_msg "embedded PDU is not an UPDATE"))
              | 1 ->
                let peer = peer_header () in
                let n = Wire.Cursor.u32 c in
                if n > 0xFFFF then fail (Bad_msg "stat count");
                let stats = ref [] in
                for _ = 1 to n do
                  let sty = Wire.Cursor.u16 c in
                  let slen = Wire.Cursor.u16 c in
                  stat_value_len sty slen;
                  let v =
                    if slen = 8 then
                      let hi = Wire.Cursor.u32 c in
                      let lo = Wire.Cursor.u32 c in
                      (hi lsl 32) lor lo
                    else Wire.Cursor.u32 c
                  in
                  stats := { stat_type = sty; stat_value = v } :: !stats
                done;
                strict_end ();
                Stats_report { peer; stats = List.rev !stats }
              | 2 ->
                let peer = peer_header () in
                let reason = Wire.Cursor.u8 c in
                check_peer_down_reason reason;
                strict_end ();
                Peer_down { peer; reason }
              | 3 ->
                let peer = peer_header () in
                let a = Wire.Cursor.u32 c in
                let b = Wire.Cursor.u32 c in
                let c3 = Wire.Cursor.u32 c in
                check_addr16 ~what:"local address" ~a ~b ~c:c3;
                let local_addr = Ipv4.of_int (Wire.Cursor.u32 c) in
                let local_port = Wire.Cursor.u16 c in
                let remote_port = Wire.Cursor.u16 c in
                let open1 =
                  match embedded_pdu ~exact:false with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                let open2 =
                  match embedded_pdu ~exact:true with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                Peer_up
                  { peer; local_addr; local_port; remote_port;
                    sent_open = open1; recv_open = open2
                  }
              | 4 -> Initiation { info = info_tlvs () }
              | 5 -> Termination { info = info_tlvs () }
              | _ -> assert false
            in
            Ok (m, body_end)
          with
          | Fail e -> Error e
          | Wire.Error Wire.Truncated -> Error (Bad_msg "body overrun")
        end
  end

(* ------------------------------------------------------------------ *)
(* Reference decoder: BMP framing by direct byte indexing, independent
   of [Cursor] on purpose; embedded PDUs go through [Wire.decode] like
   [decode]'s, so the two differ only in how they read the framing. *)

exception Overrun

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

let decode_eager buf ~pos =
  let total = Bytes.length buf in
  if pos < 0 || pos > total then invalid_arg "Bmp.decode_eager: bad position";
  if total - pos < hdr_len then Error Truncated
  else begin
    let v = Char.code (Bytes.get buf pos) in
    if v <> version then Error (Bad_version v)
    else
      let len =
        let g i = Char.code (Bytes.get buf (pos + i)) in
        (g 1 lsl 24) lor (g 2 lsl 16) lor (g 3 lsl 8) lor g 4
      in
      if len < hdr_len || len > max_len then Error (Bad_length len)
      else
        let ty = Char.code (Bytes.get buf (pos + 5)) in
        if ty > 5 then Error (Bad_type ty)
        else if total - pos < len then Error Truncated
        else begin
          let body_end = pos + len in
          let r = { rbuf = buf; rp = pos + hdr_len; rlimit = body_end } in
          let peer_header () =
            let ptype = r8 r in
            let flags = r8 r in
            let d_hi = r32 r in
            let d_lo = r32 r in
            check_peer_flags ~ptype ~flags ~d_hi ~d_lo;
            let a = r32 r in
            let b = r32 r in
            let c3 = r32 r in
            if a <> 0 || b <> 0 || c3 <> 0 then
              fail (Bad_peer_header "peer address not IPv4-mapped");
            let addr = Ipv4.of_int (r32 r) in
            let asn = Asn.of_int (r32 r) in
            let bgp_id = Ipv4.of_int (r32 r) in
            let stamp_s = r32 r in
            let stamp_us = r32 r in
            check_stamp_us stamp_us;
            { peer_addr = addr; peer_asn = asn; peer_bgp_id = bgp_id;
              stamp_s; stamp_us
            }
          in
          let embedded_pdu ~exact =
            match Wire.decode pdu_opts buf ~pos:r.rp with
            | Error e -> fail (Bad_payload e)
            | Ok (m, pdu_end) ->
              check_pdu_end ~exact ~want_end:body_end pdu_end;
              r.rp <- pdu_end;
              m
          in
          let strict_end () =
            if r.rp <> body_end then fail (Bad_msg "trailing bytes")
          in
          let info_tlvs () =
            let rec go acc =
              if r.rp = body_end then List.rev acc
              else
                let ty = r16 r in
                let l = r16 r in
                let v = rstr r l in
                go ((ty, v) :: acc)
            in
            go []
          in
          try
            let m =
              match ty with
              | 0 ->
                let peer = peer_header () in
                (match embedded_pdu ~exact:true with
                | Message.Update u -> Route_monitoring { peer; update = u }
                | _ -> fail (Bad_msg "embedded PDU is not an UPDATE"))
              | 1 ->
                let peer = peer_header () in
                let n = r32 r in
                if n > 0xFFFF then fail (Bad_msg "stat count");
                let stats = ref [] in
                for _ = 1 to n do
                  let sty = r16 r in
                  let slen = r16 r in
                  stat_value_len sty slen;
                  let v =
                    if slen = 8 then
                      let hi = r32 r in
                      let lo = r32 r in
                      (hi lsl 32) lor lo
                    else r32 r
                  in
                  stats := { stat_type = sty; stat_value = v } :: !stats
                done;
                strict_end ();
                Stats_report { peer; stats = List.rev !stats }
              | 2 ->
                let peer = peer_header () in
                let reason = r8 r in
                check_peer_down_reason reason;
                strict_end ();
                Peer_down { peer; reason }
              | 3 ->
                let peer = peer_header () in
                let a = r32 r in
                let b = r32 r in
                let c3 = r32 r in
                check_addr16 ~what:"local address" ~a ~b ~c:c3;
                let local_addr = Ipv4.of_int (r32 r) in
                let local_port = r16 r in
                let remote_port = r16 r in
                let open1 =
                  match embedded_pdu ~exact:false with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                let open2 =
                  match embedded_pdu ~exact:true with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                Peer_up
                  { peer; local_addr; local_port; remote_port;
                    sent_open = open1; recv_open = open2
                  }
              | 4 -> Initiation { info = info_tlvs () }
              | 5 -> Termination { info = info_tlvs () }
              | _ -> assert false
            in
            Ok (m, body_end)
          with
          | Fail e -> Error e
          | Overrun -> Error (Bad_msg "body overrun")
        end
  end
