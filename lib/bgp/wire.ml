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
(* Encoding.  Every writer appends whole big-endian fields, and every
   length is computed before its section is written, so a message goes
   into one buffer in one pass. *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let marker = String.make 16 '\xFF'
let header_len = 19

let asn_len opts = if opts.four_octet_asn then 4 else 2

let put_asn opts b asn =
  let a = Asn.to_int asn in
  if opts.four_octet_asn then put_u32 b a
  else put_u16 b (if a > 0xFFFF then as_trans else a)

let prefix_byte_len l = (l + 7) / 8

let prefix_len opts (_, p) =
  (if opts.add_path then 5 else 1) + prefix_byte_len (Prefix.len p)

let rec prefixes_len opts acc = function
  | [] -> acc
  | p :: rest -> prefixes_len opts (acc + prefix_len opts p) rest

(* The address bytes a prefix needs, as whole fields. *)
let put_prefix_addr b l a =
  match prefix_byte_len l with
  | 0 -> ()
  | 1 -> put_u8 b (a lsr 24)
  | 2 -> put_u16 b (a lsr 16)
  | 3 ->
    put_u16 b (a lsr 16);
    put_u8 b (a lsr 8)
  | _ -> put_u32 b a

let encode_prefix b p =
  let l = Prefix.len p in
  put_u8 b l;
  put_prefix_addr b l (Ipv4.to_int (Prefix.addr p))

let put_prefix opts b (path_id, p) =
  if opts.add_path then put_u32 b path_id;
  encode_prefix b p

let rec put_prefixes opts b = function
  | [] -> ()
  | p :: rest ->
    put_prefix opts b p;
    put_prefixes opts b rest

(* An attribute of a [len]-byte body: flags, code, and a length of one
   byte, or two with the Extended Length flag (0x10) past 255. *)
let attr_len len = (if len > 255 then 4 else 3) + len

let put_attr_header b ~flags ~code len =
  let flags = if len > 255 then flags lor 0x10 else flags in
  put_u16 b ((flags lsl 8) lor (code land 0xFF));
  if flags land 0x10 <> 0 then put_u16 b len else put_u8 b len

(* A 4-octet session takes the stored AS_PATH bytes as they are; a
   2-octet one transcodes each stored segment (type, count, 4-byte
   ASNs) to 2-byte ASNs, with AS_TRANS for an ASN above 65,535. *)
let rec as2_len w i acc =
  if i >= String.length w then acc
  else
    let n = String.get_uint8 w (i + 1) in
    as2_len w (i + 2 + (4 * n)) (acc + 2 + (2 * n))

let as_path_body_len opts path =
  let w = As_path.to_wire path in
  if opts.four_octet_asn then String.length w else as2_len w 0 0

let rec put_as2_segments b w i =
  if i < String.length w then begin
    let n = String.get_uint8 w (i + 1) in
    put_u8 b (String.get_uint8 w i);
    put_u8 b n;
    for k = 0 to n - 1 do
      let a =
        Int32.to_int (String.get_int32_be w (i + 2 + (4 * k))) land 0xFFFF_FFFF
      in
      put_u16 b (if a > 0xFFFF then as_trans else a)
    done;
    put_as2_segments b w (i + 2 + (4 * n))
  end

let put_as_path opts b path =
  put_attr_header b ~flags:0x40 ~code:2 (as_path_body_len opts path);
  if opts.four_octet_asn then Buffer.add_string b (As_path.to_wire path)
  else put_as2_segments b (As_path.to_wire path) 0

let attrs_length ?(with_next_hop = true) opts (a : Attrs.t) =
  4 (* ORIGIN *)
  + attr_len (as_path_body_len opts a.as_path)
  + (if with_next_hop then 7 else 0)
  + (match a.med with Some _ -> 7 | None -> 0)
  + (match a.local_pref with Some _ -> 7 | None -> 0)
  + (if a.atomic_aggregate then 3 else 0)
  + (match a.aggregator with Some _ -> attr_len (asn_len opts + 4) | None -> 0)
  + match a.communities with [] -> 0 | cs -> attr_len (4 * List.length cs)

let rec put_communities b = function
  | [] -> ()
  | c :: rest ->
    put_u32 b (Community.to_int32 c);
    put_communities b rest

(* In ascending attribute-code order. *)
let put_attrs ?(with_next_hop = true) opts b (a : Attrs.t) =
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
  (match a.med with
  | Some med ->
    put_attr_header b ~flags:0x80 ~code:4 4;
    put_u32 b med
  | None -> ());
  (* LOCAL_PREF *)
  (match a.local_pref with
  | Some lp ->
    put_attr_header b ~flags:0x40 ~code:5 4;
    put_u32 b lp
  | None -> ());
  if a.atomic_aggregate then put_attr_header b ~flags:0x40 ~code:6 0;
  (match a.aggregator with
  | Some (asn, addr) ->
    put_attr_header b ~flags:0xC0 ~code:7 (asn_len opts + 4);
    put_asn opts b asn;
    put_u32 b (Ipv4.to_int addr)
  | None -> ());
  match a.communities with
  | [] -> ()
  | cs ->
    put_attr_header b ~flags:0xC0 ~code:8 (4 * List.length cs);
    put_communities b cs

let capability_len = function
  | Capability.Route_refresh -> 2
  | Capability.Graceful_restart _ -> 4
  | Capability.Four_octet_asn _ | Capability.Add_path _ -> 6

let put_capability b (cap : Capability.t) =
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

let capabilities_len caps =
  List.fold_left (fun n c -> n + capability_len c) 0 caps

(* version, ASN, hold time, router id, optional-parameters length *)
let open_fixed_len = 10

let open_len (o : Message.open_msg) =
  match capabilities_len o.capabilities with
  | 0 -> open_fixed_len
  | n -> open_fixed_len + 2 + n

let put_open b (o : Message.open_msg) =
  put_u8 b o.version;
  let a = Asn.to_int o.asn in
  put_u16 b (if a > 0xFFFF then as_trans else a);
  put_u16 b o.hold_time;
  put_u32 b (Ipv4.to_int o.router_id);
  match capabilities_len o.capabilities with
  | 0 -> put_u8 b 0
  | n ->
    (* one optional parameter of type 2 (capabilities) *)
    put_u8 b (n + 2);
    put_u8 b 2;
    put_u8 b n;
    List.iter (put_capability b) o.capabilities

let update_attrs_len opts (u : Message.update) =
  match u.attrs with Some a -> attrs_length opts a | None -> 0

let update_len opts (u : Message.update) =
  4
  + prefixes_len opts 0 u.withdrawn
  + update_attrs_len opts u
  + prefixes_len opts 0 u.nlri

let message_length opts = function
  | Message.Open o -> header_len + open_len o
  | Message.Update u -> header_len + update_len opts u
  | Message.Notification n -> header_len + 2 + String.length n.reason
  | Message.Keepalive -> header_len

let put_header b len ty =
  Buffer.add_string b marker;
  put_u16 b len;
  put_u8 b ty

(* Each section's length is computed once, and the message's from
   them. *)
let put_update opts b (u : Message.update) =
  let wlen = prefixes_len opts 0 u.withdrawn in
  let alen = update_attrs_len opts u in
  put_header b (header_len + 4 + wlen + alen + prefixes_len opts 0 u.nlri) 2;
  put_u16 b wlen;
  put_prefixes opts b u.withdrawn;
  put_u16 b alen;
  (match u.attrs with Some a -> put_attrs opts b a | None -> ());
  put_prefixes opts b u.nlri

let put_message opts b msg =
  match msg with
  | Message.Open o ->
    put_header b (message_length opts msg) 1;
    put_open b o
  | Message.Update u -> put_update opts b u
  | Message.Notification n ->
    put_header b (message_length opts msg) 3;
    put_u8 b n.code;
    put_u8 b n.subcode;
    Buffer.add_string b n.reason
  | Message.Keepalive -> put_header b header_len 4

let encode opts msg =
  let b = Buffer.create (message_length opts msg) in
  put_message opts b msg;
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

  (* The end offset of the next [n] bytes, which must lie in the
     window; the cursor does not move. *)
  let span c n =
    let stop = c.pos + n in
    if stop > c.limit then raise (Error Truncated);
    stop

  (* The offset of the next [n] bytes, which must end by [stop]; the
     cursor moves past them.  Every read is one such check and one
     whole-field read. *)
  let take c n stop =
    let p = c.pos in
    if p + n > stop then raise (Error Truncated);
    c.pos <- p + n;
    p

  let u8_to c stop = Bytes.get_uint8 c.buf (take c 1 stop)
  let u16_to c stop = Bytes.get_uint16_be c.buf (take c 2 stop)

  let u32_to c stop =
    Int32.to_int (Bytes.get_int32_be c.buf (take c 4 stop)) land 0xFFFF_FFFF

  let u8 c = u8_to c c.limit
  let u16 c = u16_to c c.limit
  let u32 c = u32_to c c.limit
  let skip c n = c.pos <- span c n

  let slice c n =
    let stop = span c n in
    let sub = { buf = c.buf; pos = c.pos; limit = stop } in
    c.pos <- stop;
    sub

  let rest c = Bytes.sub c.buf c.pos (remaining c)
  let rest_string c = Bytes.sub_string c.buf c.pos (remaining c)
end

(* ------------------------------------------------------------------ *)
(* Sub-parsers over a cursor.  Each reads up to an end offset [stop]
   inside the cursor's window and raises [Error] on a malformed or
   truncated span; the public entry points catch it. *)

let get_asn opts c stop =
  Asn.of_int
    (if opts.four_octet_asn then Cursor.u32_to c stop else Cursor.u16_to c stop)

let get_prefix opts c stop =
  let path_id = if opts.add_path then Cursor.u32_to c stop else 0 in
  let l = Cursor.u8_to c stop in
  if l > 32 then raise (Error (Bad_attribute "prefix length > 32"));
  let a =
    match prefix_byte_len l with
    | 0 -> 0
    | 1 -> Cursor.u8_to c stop lsl 24
    | 2 -> Cursor.u16_to c stop lsl 16
    | 3 ->
      let hi = Cursor.u16_to c stop in
      (hi lsl 16) lor (Cursor.u8_to c stop lsl 8)
    | _ -> Cursor.u32_to c stop
  in
  (path_id, Prefix.make (Ipv4.of_int a) l)

let read_prefix c = snd (get_prefix default_opts c c.Cursor.limit)

(* In wire order; not tail-recursive, so the list is built once. *)
let rec get_prefixes opts c stop =
  if c.Cursor.pos >= stop then []
  else
    let p = get_prefix opts c stop in
    p :: get_prefixes opts c stop

let rec get_as2_segments opts c stop =
  if c.Cursor.pos >= stop then []
  else
    let ty = Cursor.u8_to c stop in
    let n = Cursor.u8_to c stop in
    let asns = List.init n (fun _ -> get_asn opts c stop) in
    let seg =
      match ty with
      | 1 -> As_path.Set asns
      | 2 -> As_path.Seq asns
      | t -> raise (Error (Bad_attribute (Printf.sprintf "segment type %d" t)))
    in
    seg :: get_as2_segments opts c stop

let get_as_path opts c stop =
  if opts.four_octet_asn then begin
    match As_path.of_wire c.Cursor.buf ~pos:c.pos ~len:(stop - c.pos) with
    | Ok p -> p
    | Error `Truncated -> raise (Error Truncated)
    | Error (`Segment_type t) ->
      raise (Error (Bad_attribute (Printf.sprintf "segment type %d" t)))
  end
  else As_path.of_segments (get_as2_segments opts c stop)

let rec get_communities c stop =
  if c.Cursor.pos >= stop then []
  else
    let x = Community.of_int32 (Cursor.u32_to c stop) in
    x :: get_communities c stop

(* Reads attributes up to [stop], each against its own end offset,
   into local variables, and builds the [Attrs.t] from them. *)
let get_attrs ~require_next_hop opts c stop =
  let origin = ref None
  and as_path = ref None
  and next_hop = ref None
  and med = ref None
  and local_pref = ref None
  and atomic = ref false
  and aggregator = ref None
  and communities = ref [] in
  while c.Cursor.pos < stop do
    let flags = Cursor.u8_to c stop in
    let code = Cursor.u8_to c stop in
    let len =
      if flags land 0x10 <> 0 then Cursor.u16_to c stop else Cursor.u8_to c stop
    in
    let attr_end = c.pos + len in
    if attr_end > stop then raise (Error Truncated);
    (match code with
    | 1 ->
      origin :=
        (match Cursor.u8_to c attr_end with
        | 0 -> Some Attrs.IGP
        | 1 -> Some Attrs.EGP
        | 2 -> Some Attrs.INCOMPLETE
        | o -> raise (Error (Bad_attribute (Printf.sprintf "origin %d" o))))
    | 2 -> as_path := Some (get_as_path opts c attr_end)
    | 3 -> next_hop := Some (Ipv4.of_int (Cursor.u32_to c attr_end))
    | 4 -> med := Some (Cursor.u32_to c attr_end)
    | 5 -> local_pref := Some (Cursor.u32_to c attr_end)
    | 6 -> atomic := true
    | 7 ->
      let asn = get_asn opts c attr_end in
      let addr = Ipv4.of_int (Cursor.u32_to c attr_end) in
      aggregator := Some (asn, addr)
    | 8 -> communities := get_communities c attr_end
    | _ when flags land 0x80 <> 0 -> () (* skip unknown optional *)
    | n -> raise (Error (Bad_attribute (Printf.sprintf "unknown mandatory %d" n))));
    c.pos <- attr_end
  done;
  match (!origin, !as_path, !next_hop) with
  | None, None, None ->
    (* Only optional attributes (e.g. MP_REACH/MP_UNREACH, RFC 4760):
       legal for an UPDATE without v4 NLRI. *)
    None
  | None, _, _ -> raise (Error (Bad_attribute "missing ORIGIN"))
  | _, None, _ -> raise (Error (Bad_attribute "missing AS_PATH"))
  | origin, as_path, next_hop ->
    let next_hop =
      match next_hop with
      | Some nh -> nh
      | None when not require_next_hop ->
        (* MRT RIB_IPV6 entries: reachability is in MP_REACH_NLRI, not
           a NEXT_HOP attribute; the v4 slot is filled with 0.0.0.0. *)
        Ipv4.of_int 0
      | None -> raise (Error (Bad_attribute "missing NEXT_HOP"))
    in
    (* Every optional argument is an option already built or a
       constant, so building allocates only the attributes. *)
    Some
      (Attrs.make ?origin ?as_path ?med:!med ?local_pref:!local_pref
         ?atomic_aggregate:(if !atomic then Some true else None)
         ?aggregator:!aggregator
         ?communities:(match !communities with [] -> None | cs -> Some cs)
         ~next_hop ())

let decode_attrs ?(require_next_hop = true) opts c =
  try Ok (get_attrs ~require_next_hop opts c c.Cursor.limit)
  with Error e -> Result.Error e

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
  let withdrawn_end = Cursor.span c (Cursor.u16 c) in
  let withdrawn = get_prefixes opts c withdrawn_end in
  let alen = Cursor.u16 c in
  let attrs_end = Cursor.span c alen in
  let attrs =
    if alen = 0 then None
    else get_attrs ~require_next_hop:true opts c attrs_end
  in
  let nlri = get_prefixes opts c c.limit in
  if nlri <> [] && attrs = None then
    raise (Error (Bad_attribute "NLRI without path attributes"));
  Message.Update { withdrawn; attrs; nlri }

(* Header validation: bounds are checked once, then the fields are
   read in place.  Returns the total length, or raises. *)
let check_header buf ~pos =
  let total = Bytes.length buf in
  if pos + header_len > total then raise (Error Truncated);
  if Bytes.get_int64_ne buf pos <> -1L || Bytes.get_int64_ne buf (pos + 8) <> -1L
  then raise (Error Bad_marker);
  let len = Bytes.get_uint16_be buf (pos + 16) in
  if len < header_len || len > 4096 then raise (Error (Bad_length len));
  if pos + len > total then raise (Error Truncated);
  len

let decode opts buf ~pos =
  try
    let len = check_header buf ~pos in
    let ty = Bytes.get_uint8 buf (pos + 18) in
    let c = { Cursor.buf; pos = pos + header_len; limit = pos + len } in
    let msg =
      match ty with
      | 1 -> Message.Open (decode_open c)
      | 2 -> decode_update opts c
      | 3 -> Message.Notification (decode_notification c)
      | 4 ->
        if len <> header_len then raise (Error (Bad_length len));
        Message.Keepalive
      | t -> raise (Error (Bad_type t))
    in
    Ok (msg, pos + len)
  with Error e -> Result.Error e
