open Peering_net

type reach = {
  attrs : Attrs.t;
  next_hop : Ipv6.t;
  nlri : Prefix6.t list;
}

type update6 = Reach of reach | Unreach of Prefix6.t list

let afi_ipv6 = 2
let safi_unicast = 1
let mp_reach_code = 14
let mp_unreach_code = 15

(* ------------------------------------------------------------------ *)
(* IPv6 byte helpers, on Wire's byte layer: its writers and its
   Cursor. *)

module Cursor = Wire.Cursor

let put_u64 b v =
  for i = 7 downto 0 do
    Wire.put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let put_ipv6 b (a : Ipv6.t) =
  put_u64 b a.Ipv6.hi;
  put_u64 b a.Ipv6.lo

let prefix6_wire_bytes p = (Prefix6.len p + 7) / 8

let put_prefix6 b p =
  Wire.put_u8 b (Prefix6.len p);
  let a = Prefix6.addr p in
  let nbytes = prefix6_wire_bytes p in
  for i = 0 to nbytes - 1 do
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

let u64 c =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Cursor.u8 c))
  done;
  !v

let read_ipv6 c =
  let hi = u64 c in
  let lo = u64 c in
  Ipv6.make hi lo

let read_prefix6 c =
  let len = Cursor.u8 c in
  if len > 128 then
    raise (Wire.Error (Wire.Bad_attribute "v6 prefix length > 128"));
  let nbytes = (len + 7) / 8 in
  let hi = ref 0L and lo = ref 0L in
  for i = 0 to nbytes - 1 do
    let byte = Int64.of_int (Cursor.u8 c) in
    if i < 8 then hi := Int64.logor !hi (Int64.shift_left byte (56 - (8 * i)))
    else lo := Int64.logor !lo (Int64.shift_left byte (56 - (8 * (i - 8))))
  done;
  Prefix6.make (Ipv6.make !hi !lo) len

(* ------------------------------------------------------------------ *)
(* Encode: the shared attributes come from [Wire.encode_attrs], the MP
   attribute follows them, and the UPDATE carries no v4 withdrawn
   routes or NLRI. *)

let mp_attribute b = function
  | Reach r ->
    let body = Buffer.create 64 in
    Wire.put_u16 body afi_ipv6;
    Wire.put_u8 body safi_unicast;
    Wire.put_u8 body 16 (* next-hop length *);
    put_ipv6 body r.next_hop;
    Wire.put_u8 body 0 (* reserved / SNPA count *);
    List.iter (put_prefix6 body) r.nlri;
    Wire.put_attribute b ~flags:0x80 ~code:mp_reach_code body
  | Unreach prefixes ->
    let body = Buffer.create 32 in
    Wire.put_u16 body afi_ipv6;
    Wire.put_u8 body safi_unicast;
    List.iter (put_prefix6 body) prefixes;
    Wire.put_attribute b ~flags:0x80 ~code:mp_unreach_code body

let encode opts update =
  let attrs = Buffer.create 128 in
  (match update with
  | Reach r -> Buffer.add_bytes attrs (Wire.encode_attrs opts r.attrs)
  | Unreach _ -> ());
  mp_attribute attrs update;
  let out = Buffer.create (23 + Buffer.length attrs) in
  for _ = 1 to 16 do
    Buffer.add_char out '\xFF'
  done;
  Wire.put_u16 out (23 + Buffer.length attrs);
  Wire.put_u8 out 2 (* UPDATE *);
  Wire.put_u16 out 0 (* no withdrawn routes *);
  Wire.put_u16 out (Buffer.length attrs);
  Buffer.add_buffer out attrs;
  Buffer.to_bytes out

(* ------------------------------------------------------------------ *)
(* Decode *)

let afi_safi sub =
  let afi = Cursor.u16 sub in
  let safi = Cursor.u8 sub in
  if afi <> afi_ipv6 || safi <> safi_unicast then
    raise (Wire.Error (Wire.Bad_attribute "unsupported AFI/SAFI"))

let prefixes6 sub =
  let acc = ref [] in
  while Cursor.remaining sub > 0 do
    acc := read_prefix6 sub :: !acc
  done;
  List.rev !acc

let decode opts buf =
  (* First pass: the v4 codec validates framing and recovers the
     shared attributes (it skips the MP attributes as unknown
     optional). *)
  match Wire.decode opts buf ~pos:0 with
  | Error e -> Error e
  | Ok (Message.Open _, _) | Ok (Message.Keepalive, _)
  | Ok (Message.Notification _, _) ->
    Error (Wire.Bad_attribute "not an UPDATE")
  | Ok (Message.Update u, stop) -> (
    (* Second pass: the UPDATE body past its withdrawn routes, scanned
       for MP attributes. *)
    try
      let body = Cursor.of_bytes ~pos:19 ~len:(stop - 19) buf in
      Cursor.skip body (Cursor.u16 body);
      let r = Cursor.slice body (Cursor.u16 body) in
      let found = ref None in
      while Cursor.remaining r > 0 do
        let flags = Cursor.u8 r in
        let code = Cursor.u8 r in
        let len = if flags land 0x10 <> 0 then Cursor.u16 r else Cursor.u8 r in
        let sub = Cursor.slice r len in
        if code = mp_reach_code then begin
          afi_safi sub;
          if Cursor.u8 sub <> 16 then
            raise (Wire.Error (Wire.Bad_attribute "bad v6 next-hop length"));
          let next_hop = read_ipv6 sub in
          let _reserved = Cursor.u8 sub in
          let nlri = prefixes6 sub in
          let attrs =
            Option.value u.Message.attrs
              ~default:(Attrs.make ~next_hop:(Ipv4.of_int 0) ())
          in
          found := Some (Reach { attrs; next_hop; nlri })
        end
        else if code = mp_unreach_code then begin
          afi_safi sub;
          found := Some (Unreach (prefixes6 sub))
        end
      done;
      match !found with
      | Some m -> Ok m
      | None -> Error (Wire.Bad_attribute "no MP attribute present")
    with Wire.Error e -> Error e)

let announce ?attrs ~next_hop nlri =
  let attrs =
    Option.value attrs ~default:(Attrs.make ~next_hop:(Ipv4.of_int 0) ())
  in
  Reach { attrs; next_hop; nlri }

let withdraw prefixes = Unreach prefixes
