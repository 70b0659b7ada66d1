open Peering_net

type segment = Seq of Asn.t list | Set of Asn.t list
type t = segment list

let empty = []
let of_asns = function [] -> [] | l -> [ Seq l ]

let to_asns p =
  List.concat_map (function Seq l | Set l -> l) p

let prepend a = function
  | Seq l :: rest -> Seq (a :: l) :: rest
  | p -> Seq [ a ] :: p

let rec prepend_n a n p = if n <= 0 then p else prepend_n a (n - 1) (prepend a p)

let length p =
  List.fold_left
    (fun acc -> function Seq l -> acc + List.length l | Set _ -> acc + 1)
    0 p

let mem a p =
  List.exists
    (function Seq l | Set l -> List.exists (Asn.equal a) l)
    p

let origin_asn p =
  match List.rev p with
  | Seq l :: _ -> (
    match List.rev l with x :: _ -> Some x | [] -> None)
  | Set _ :: _ | [] -> None

let neighbor_asn p =
  match p with
  | Seq (x :: _) :: _ -> Some x
  | Seq [] :: rest -> (
    match rest with Seq (x :: _) :: _ -> Some x | _ -> None)
  | Set _ :: _ | [] -> None

let strip_private p =
  List.filter_map
    (fun seg ->
      let keep l = List.filter (fun a -> not (Asn.is_private a)) l in
      match seg with
      | Seq l -> ( match keep l with [] -> None | l' -> Some (Seq l'))
      | Set l -> ( match keep l with [] -> None | l' -> Some (Set l')))
    p

let segment_compare s1 s2 =
  match (s1, s2) with
  | Seq a, Seq b | Set a, Set b -> List.compare Asn.compare a b
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare = List.compare segment_compare

let to_string p =
  let seg = function
    | Seq l -> String.concat " " (List.map (fun a -> string_of_int (Asn.to_int a)) l)
    | Set l ->
      "{" ^ String.concat "," (List.map (fun a -> string_of_int (Asn.to_int a)) l) ^ "}"
  in
  String.concat " " (List.map seg p)

let pp ppf p = Format.pp_print_string ppf (to_string p)
