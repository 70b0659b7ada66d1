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

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 128) (Ipv6.of_string s)
  | Some i -> (
    let addr_s = String.sub s 0 i in
    let len_s = String.sub s (i + 1) (String.length s - i - 1) in
    match (Ipv6.of_string addr_s, int_of_string_opt len_s) with
    | Some a, Some l when l >= 0 && l <= 128 -> Some (make a l)
    | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix6.of_string_exn: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv6.to_string p.addr) p.len
let addr p = p.addr
let len p = p.len

let mem a p = Ipv6.equal (mask_addr a p.len) p.addr
let subsumes p q = p.len <= q.len && mem q.addr p

let nth_subprefix p l i =
  if l < p.len || l > 128 then invalid_arg "Prefix6.nth_subprefix";
  if l > 126 then invalid_arg "Prefix6.nth_subprefix: block too small";
  (* offset the address by i steps of 2^(128-l); only the low-64 part
     of the step is supported, which covers any l >= 66; for shorter
     allocation lengths we shift within hi directly. *)
  if l <= 64 then
    let step_hi = Int64.shift_left 1L (64 - l) in
    let hi = Int64.add p.addr.Ipv6.hi (Int64.mul (Int64.of_int i) step_hi) in
    make (Ipv6.make hi p.addr.Ipv6.lo) l
  else
    let step = Int64.shift_left 1L (128 - l) in
    make (Ipv6.add p.addr (Int64.mul (Int64.of_int i) step)) l

let compare p q =
  match Ipv6.compare p.addr q.addr with
  | 0 -> Int.compare p.len q.len
  | c -> c

let equal p q = compare p q = 0

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
