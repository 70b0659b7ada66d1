type t = int

let mask32 = 0xFFFFFFFF

let of_int n = n land mask32
let to_int a = a

let of_octets a b c d =
  ((a land 0xFF) lsl 24)
  lor ((b land 0xFF) lsl 16)
  lor ((c land 0xFF) lsl 8)
  lor (d land 0xFF)

let to_octets a =
  ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let of_string s =
  (* Hand-rolled parse: exactly four decimal octets separated by dots,
     no leading/trailing garbage, each in [0, 255]. *)
  let len = String.length s in
  let rec octet i acc ndigits =
    if i >= len then (i, acc, ndigits)
    else
      match s.[i] with
      | '0' .. '9' when ndigits < 3 ->
        octet (i + 1) ((acc * 10) + Char.code s.[i] - Char.code '0') (ndigits + 1)
      | _ -> (i, acc, ndigits)
  in
  let rec go i parts count =
    let j, v, nd = octet i 0 0 in
    if nd = 0 || v > 255 then None
    else
      let parts = (v :: parts) and count = count + 1 in
      if count = 4 then if j = len then Some (List.rev parts) else None
      else if j < len && s.[j] = '.' then go (j + 1) parts count
      else None
  in
  match go 0 [] 0 with
  | Some [ a; b; c; d ] -> Some (of_octets a b c d)
  | Some _ | None -> None

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let to_string a =
  let x, y, z, w = to_octets a in
  Printf.sprintf "%d.%d.%d.%d" x y z w

let compare = Int.compare
let equal = Int.equal
let add a n = (a + n) land mask32

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit";
  (a lsr (31 - i)) land 1 = 1

let pp ppf a = Format.pp_print_string ppf (to_string a)
