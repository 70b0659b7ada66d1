open Peering_net

type session_opts = { four_octet_asn : bool; add_path : bool }

let default_opts = { four_octet_asn = false; add_path = false }

type error =
  | Truncated
  | Bad_marker
  | Bad_length of int
  | Bad_type of int
  | Bad_version of int
  | Bad_attribute of string
  | Bad_capability of string

let error_to_string = function
  | Truncated -> "truncated message"
  | Bad_marker -> "bad marker"
  | Bad_length n -> Printf.sprintf "bad length %d" n
  | Bad_type n -> Printf.sprintf "bad message type %d" n
  | Bad_version n -> Printf.sprintf "bad version %d" n
  | Bad_attribute s -> Printf.sprintf "bad attribute: %s" s
  | Bad_capability s -> Printf.sprintf "bad capability: %s" s

exception Error of error

let as_trans = 23456

(* ------------------------------------------------------------------ *)
(* Encoding *)

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

let encode_prefix b p = put_prefix default_opts b (0, p)

let put_attr_header b ~flags ~code len =
  let flags = if len > 255 then flags lor 0x10 else flags in
  put_u8 b flags;
  put_u8 b code;
  if flags land 0x10 <> 0 then put_u16 b len else put_u8 b len

let put_attribute b ~flags ~code body =
  put_attr_header b ~flags ~code (Buffer.length body);
  Buffer.add_buffer b body

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

(* Every attribute's length is known before its body is written, so
   each header goes straight into the one buffer. *)
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
(* Cursor: the bounds-checked window every decoder reads through. *)

module Cursor = struct
  type t = { buf : bytes; mutable pos : int; limit : int }

  let of_bytes ?(pos = 0) ?len buf =
    let total = Bytes.length buf in
    let limit = match len with None -> total | Some n -> pos + n in
    if pos < 0 || pos > limit || limit > total then
      invalid_arg "Wire.Cursor.of_bytes";
    { buf; pos; limit }

  let pos c = c.pos
  let remaining c = c.limit - c.pos
  let need c n = if c.pos + n > c.limit then raise (Error Truncated)

  let u8 c =
    need c 1;
    let v = Char.code (Bytes.get c.buf c.pos) in
    c.pos <- c.pos + 1;
    v

  let u16 c =
    let hi = u8 c in
    let lo = u8 c in
    (hi lsl 8) lor lo

  let u32 c =
    let hi = u16 c in
    let lo = u16 c in
    (hi lsl 16) lor lo

  let skip c n =
    need c n;
    c.pos <- c.pos + n

  let slice c n =
    need c n;
    let sub = { buf = c.buf; pos = c.pos; limit = c.pos + n } in
    c.pos <- c.pos + n;
    sub

  let rest c = Bytes.sub c.buf c.pos (remaining c)
  let rest_string c = Bytes.sub_string c.buf c.pos (remaining c)
end

(* ------------------------------------------------------------------ *)
(* Sub-parsers over a cursor.  Each raises [Error] on a malformed or
   truncated span; the public entry points catch it. *)

let get_asn opts c =
  Asn.of_int (if opts.four_octet_asn then Cursor.u32 c else Cursor.u16 c)

let get_prefix opts c =
  let path_id = if opts.add_path then Cursor.u32 c else 0 in
  let l = Cursor.u8 c in
  if l > 32 then raise (Error (Bad_attribute "prefix length > 32"));
  let nbytes = prefix_byte_len l in
  let a = ref 0 in
  for i = 0 to nbytes - 1 do
    a := !a lor (Cursor.u8 c lsl (24 - (8 * i)))
  done;
  (path_id, Prefix.make (Ipv4.of_int !a) l)

let read_prefix c = snd (get_prefix default_opts c)

let get_prefixes opts c =
  let acc = ref [] in
  while Cursor.remaining c > 0 do
    acc := get_prefix opts c :: !acc
  done;
  List.rev !acc

let get_as_path opts c =
  if opts.four_octet_asn then begin
    match As_path.of_wire c.Cursor.buf ~pos:c.pos ~len:(Cursor.remaining c) with
    | Ok p -> p
    | Error `Truncated -> raise (Error Truncated)
    | Error (`Segment_type t) ->
      raise (Error (Bad_attribute (Printf.sprintf "segment type %d" t)))
  end
  else begin
    let segs = ref [] in
    while Cursor.remaining c > 0 do
      let ty = Cursor.u8 c in
      let n = Cursor.u8 c in
      let asns = List.init n (fun _ -> get_asn opts c) in
      let seg =
        match ty with
        | 1 -> As_path.Set asns
        | 2 -> As_path.Seq asns
        | t -> raise (Error (Bad_attribute (Printf.sprintf "segment type %d" t)))
      in
      segs := seg :: !segs
    done;
    As_path.of_segments (List.rev !segs)
  end

type partial_attrs = {
  mutable p_origin : Attrs.origin option;
  mutable p_as_path : As_path.t option;
  mutable p_next_hop : Ipv4.t option;
  mutable p_med : int option;
  mutable p_local_pref : int option;
  mutable p_atomic : bool;
  mutable p_aggregator : (Asn.t * Ipv4.t) option;
  mutable p_communities : Community.t list;
}

let get_attrs ?(require_next_hop = true) opts c =
  let p =
    { p_origin = None;
      p_as_path = None;
      p_next_hop = None;
      p_med = None;
      p_local_pref = None;
      p_atomic = false;
      p_aggregator = None;
      p_communities = []
    }
  in
  while Cursor.remaining c > 0 do
    let flags = Cursor.u8 c in
    let code = Cursor.u8 c in
    let len = if flags land 0x10 <> 0 then Cursor.u16 c else Cursor.u8 c in
    let sub = Cursor.slice c len in
    match code with
    | 1 ->
      p.p_origin <-
        Some
          (match Cursor.u8 sub with
          | 0 -> Attrs.IGP
          | 1 -> Attrs.EGP
          | 2 -> Attrs.INCOMPLETE
          | o -> raise (Error (Bad_attribute (Printf.sprintf "origin %d" o))))
    | 2 -> p.p_as_path <- Some (get_as_path opts sub)
    | 3 -> p.p_next_hop <- Some (Ipv4.of_int (Cursor.u32 sub))
    | 4 -> p.p_med <- Some (Cursor.u32 sub)
    | 5 -> p.p_local_pref <- Some (Cursor.u32 sub)
    | 6 -> p.p_atomic <- true
    | 7 ->
      let asn = get_asn opts sub in
      let addr = Ipv4.of_int (Cursor.u32 sub) in
      p.p_aggregator <- Some (asn, addr)
    | 8 ->
      let cs = ref [] in
      while Cursor.remaining sub > 0 do
        cs := Community.of_int32 (Cursor.u32 sub) :: !cs
      done;
      p.p_communities <- List.rev !cs
    | _ when flags land 0x80 <> 0 -> () (* skip unknown optional *)
    | c -> raise (Error (Bad_attribute (Printf.sprintf "unknown mandatory %d" c)))
  done;
  let build ~next_hop origin as_path =
    Some
      (Attrs.make ~origin ~as_path ?med:p.p_med ?local_pref:p.p_local_pref
         ~atomic_aggregate:p.p_atomic ?aggregator:p.p_aggregator
         ~communities:p.p_communities ~next_hop ())
  in
  match (p.p_origin, p.p_as_path, p.p_next_hop) with
  | Some origin, Some as_path, Some next_hop -> build ~next_hop origin as_path
  | Some origin, Some as_path, None when not require_next_hop ->
    (* MRT RIB_IPV6 entries: reachability is in MP_REACH_NLRI, not a
       NEXT_HOP attribute; the v4 slot is filled with 0.0.0.0. *)
    build ~next_hop:(Ipv4.of_int 0) origin as_path
  | None, None, None ->
    (* Only optional attributes (e.g. MP_REACH/MP_UNREACH, RFC 4760):
       legal for an UPDATE without v4 NLRI. *)
    None
  | None, _, _ -> raise (Error (Bad_attribute "missing ORIGIN"))
  | _, None, _ -> raise (Error (Bad_attribute "missing AS_PATH"))
  | _, _, None -> raise (Error (Bad_attribute "missing NEXT_HOP"))

let decode_attrs ?require_next_hop opts c =
  try Ok (get_attrs ?require_next_hop opts c) with Error e -> Result.Error e

let decode_capability c =
  let code = Cursor.u8 c in
  let len = Cursor.u8 c in
  let sub = Cursor.slice c len in
  match code with
  | 2 -> Some Capability.Route_refresh
  | 64 -> Some (Capability.Graceful_restart (Cursor.u16 sub land 0x0FFF))
  | 65 -> Some (Capability.Four_octet_asn (Cursor.u32 sub))
  | 69 ->
    let _afi = Cursor.u16 sub in
    let _safi = Cursor.u8 sub in
    let mode =
      match Cursor.u8 sub with
      | 1 -> Capability.Receive
      | 2 -> Capability.Send
      | 3 -> Capability.Send_receive
      | m -> raise (Error (Bad_capability (Printf.sprintf "add-path mode %d" m)))
    in
    Some (Capability.Add_path mode)
  | _ -> None (* ignore unknown capabilities *)

let decode_open c : Message.open_msg =
  let version = Cursor.u8 c in
  if version <> 4 then raise (Error (Bad_version version));
  let asn16 = Cursor.u16 c in
  let hold_time = Cursor.u16 c in
  let router_id = Ipv4.of_int (Cursor.u32 c) in
  let opt_len = Cursor.u8 c in
  let params = Cursor.slice c opt_len in
  let caps = ref [] in
  while Cursor.remaining params > 0 do
    let pty = Cursor.u8 params in
    let plen = Cursor.u8 params in
    let sub = Cursor.slice params plen in
    if pty = 2 then
      while Cursor.remaining sub > 0 do
        match decode_capability sub with
        | Some cap -> caps := cap :: !caps
        | None -> ()
      done
  done;
  let capabilities = List.rev !caps in
  (* If a 4-octet capability is present it carries the true ASN. *)
  let asn =
    match
      List.find_map
        (function Capability.Four_octet_asn a -> Some a | _ -> None)
        capabilities
    with
    | Some a -> Asn.of_int a
    | None -> Asn.of_int asn16
  in
  { version; asn; hold_time; router_id; capabilities }

let decode_notification c : Message.notification =
  let code = Cursor.u8 c in
  let subcode = Cursor.u8 c in
  let reason = Cursor.rest_string c in
  Message.{ code; subcode; reason }

(* ------------------------------------------------------------------ *)
(* Decoding: one pass over the frame, sections in wire order. *)

let decode_update opts c =
  let wlen = Cursor.u16 c in
  let wsub = Cursor.slice c wlen in
  let withdrawn = get_prefixes opts wsub in
  let alen = Cursor.u16 c in
  let asub = Cursor.slice c alen in
  let attrs = if alen = 0 then None else get_attrs opts asub in
  let nlri = get_prefixes opts c in
  if nlri <> [] && attrs = None then
    raise (Error (Bad_attribute "NLRI without path attributes"));
  Message.Update { withdrawn; attrs; nlri }

(* Header validation: returns the message type and total length, or
   raises. *)
let check_header buf ~pos =
  let total = Bytes.length buf in
  if pos + 19 > total then raise (Error Truncated);
  let hdr = Cursor.of_bytes ~pos ~len:19 buf in
  for _ = 1 to 16 do
    if Cursor.u8 hdr <> 0xFF then raise (Error Bad_marker)
  done;
  let len = Cursor.u16 hdr in
  if len < 19 || len > 4096 then raise (Error (Bad_length len));
  if pos + len > total then raise (Error Truncated);
  let ty = Cursor.u8 hdr in
  (ty, len)

let decode opts buf ~pos =
  try
    let ty, len = check_header buf ~pos in
    let c = Cursor.of_bytes ~pos:(pos + 19) ~len:(len - 19) buf in
    let msg =
      match ty with
      | 1 -> Message.Open (decode_open c)
      | 2 -> decode_update opts c
      | 3 -> Message.Notification (decode_notification c)
      | 4 ->
        if len <> 19 then raise (Error (Bad_length len));
        Message.Keepalive
      | t -> raise (Error (Bad_type t))
    in
    Ok (msg, pos + len)
  with Error e -> Result.Error e
