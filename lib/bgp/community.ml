type t = int

let make asn value =
  if asn < 0 || asn > 0xFFFF || value < 0 || value > 0xFFFF then
    invalid_arg "Community.make";
  (asn lsl 16) lor value

let of_int32 v = v land 0xFFFFFFFF
let to_int32 c = c
let asn_part c = (c lsr 16) land 0xFFFF
let value_part c = c land 0xFFFF

let no_export = 0xFFFFFF01
let no_advertise = 0xFFFFFF02
let no_export_subconfed = 0xFFFFFF03

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let a = String.sub s 0 i
    and v = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt a, int_of_string_opt v) with
    | Some a, Some v when a >= 0 && a <= 0xFFFF && v >= 0 && v <= 0xFFFF ->
      Some (make a v)
    | _ -> None)

let to_string c =
  if c = no_export then "no-export"
  else if c = no_advertise then "no-advertise"
  else if c = no_export_subconfed then "no-export-subconfed"
  else Printf.sprintf "%d:%d" (asn_part c) (value_part c)

let compare = Int.compare
let equal = Int.equal

let mem c l = List.exists (equal c) l

let add c l =
  if mem c l then l else List.sort compare (c :: l)
