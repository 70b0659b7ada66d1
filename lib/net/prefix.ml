type t = { addr : Ipv4.t; len : int }

let network_mask len =
  if len = 0 then 0 else 0xFFFFFFFF lxor ((1 lsl (32 - len)) - 1)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
  { addr = Ipv4.of_int (Ipv4.to_int addr land network_mask len); len }

let addr p = p.addr
let len p = p.len

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 32) (Ipv4.of_string s)
  | Some i -> (
    let addr_s = String.sub s 0 i in
    let len_s = String.sub s (i + 1) (String.length s - i - 1) in
    match (Ipv4.of_string addr_s, int_of_string_opt len_s) with
    | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
    | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.addr) p.len

let mem a p =
  Ipv4.to_int a land network_mask p.len = Ipv4.to_int p.addr

let subsumes p q = p.len <= q.len && mem q.addr p
let overlaps p q = subsumes p q || subsumes q p

let first p = p.addr

let last p =
  Ipv4.of_int (Ipv4.to_int p.addr lor (0xFFFFFFFF lxor network_mask p.len))

let size p = 1 lsl (32 - p.len)


let nth_subprefix p l i =
  if l < p.len || l > 32 then invalid_arg "Prefix.nth_subprefix";
  let step = 1 lsl (32 - l) in
  make (Ipv4.add p.addr (i * step)) l

let subprefixes p l =
  if l < p.len || l > 32 then invalid_arg "Prefix.subprefixes";
  let n = 1 lsl (l - p.len) in
  List.init n (fun i -> nth_subprefix p l i)

let compare p q =
  match Ipv4.compare p.addr q.addr with
  | 0 -> Int.compare p.len q.len
  | c -> c

let equal p q = compare p q = 0
let hash p = (Ipv4.to_int p.addr * 33) + p.len
let pp ppf p = Format.pp_print_string ppf (to_string p)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
