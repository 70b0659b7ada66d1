type t = int

let max_asn = 0xFFFFFFFF

let of_int n =
  if n < 0 || n > max_asn then invalid_arg "Asn.of_int: out of range";
  n

let of_string s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_asn -> Some n
  | _ -> None

let to_int a = a

let is_private a =
  (a >= 64512 && a <= 65534) || (a >= 4200000000 && a <= 4294967294)


let compare = Int.compare
let equal = Int.equal
let to_string a = Printf.sprintf "AS%d" a
let pp ppf a = Format.pp_print_string ppf (to_string a)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
