type t = { addr : Ipv6.t; len : int }

let mask_addr (a : Ipv6.t) len =
  let open Int64 in
  if len <= 0 then Ipv6.make 0L 0L
  else if len >= 128 then a
  else if len <= 64 then
    let keep = if len = 64 then minus_one else shift_left minus_one (64 - len) in
    Ipv6.make (logand (a : Ipv6.t).Ipv6.hi keep) 0L
  else
    let keep = shift_left minus_one (128 - len) in
    Ipv6.make a.Ipv6.hi (logand a.Ipv6.lo keep)

let make addr len =
  if len < 0 || len > 128 then invalid_arg "Prefix6.make";
  { addr = mask_addr addr len; len }

let addr p = p.addr
let len p = p.len
