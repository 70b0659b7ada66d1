(* Reference AS_PATH, for differential tests against [As_path]: a path
   is the list of its segments, and every accessor walks the lists.

   Same contract as [As_path], including the split rule: a segment of
   more than 255 ASNs is held as consecutive segments of its type of
   at most 255 each, and [prepend] opens a new sequence in front of a
   full one. *)

open Peering_net
open Peering_bgp.As_path

type t = segment list

let max_count = 255

(* [l] in chunks of at most [max_count]; one empty chunk for [[]]. *)
let chunks l =
  let rec go acc cur n = function
    | [] -> List.rev (List.rev cur :: acc)
    | a :: rest when n = max_count -> go (List.rev cur :: acc) [ a ] 1 rest
    | a :: rest -> go acc (a :: cur) (n + 1) rest
  in
  go [] [] 0 l

let of_segments segs =
  List.concat_map
    (function
      | Seq l -> List.map (fun c -> Seq c) (chunks l)
      | Set l -> List.map (fun c -> Set c) (chunks l))
    segs

let of_asns = function [] -> [] | l -> of_segments [ Seq l ]
let to_asns p = List.concat_map (function Seq l | Set l -> l) p

let prepend a = function
  | Seq l :: rest when List.length l < max_count -> Seq (a :: l) :: rest
  | p -> Seq [ a ] :: p

let rec prepend_n a n p = if n <= 0 then p else prepend_n a (n - 1) (prepend a p)

let length p =
  List.fold_left
    (fun acc -> function Seq l -> acc + List.length l | Set _ -> acc + 1)
    0 p

let mem a p = List.exists (function Seq l | Set l -> List.exists (Asn.equal a) l) p

let origin_asn p =
  match List.rev p with
  | Seq l :: _ -> ( match List.rev l with x :: _ -> Some x | [] -> None)
  | Set _ :: _ | [] -> None

let neighbor_asn = function
  | Seq (x :: _) :: _ -> Some x
  | Seq [] :: Seq (x :: _) :: _ -> Some x
  | _ -> None

let segment_compare s1 s2 =
  match (s1, s2) with
  | Seq a, Seq b | Set a, Set b -> List.compare Asn.compare a b
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare = List.compare segment_compare

let to_string p =
  let asns sep l = String.concat sep (List.map (fun a -> string_of_int (Asn.to_int a)) l) in
  String.concat " "
    (List.map (function Seq l -> asns " " l | Set l -> "{" ^ asns "," l ^ "}") p)
