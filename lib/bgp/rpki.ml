open Peering_net

type validity = Valid | Invalid | Not_found

(* ROA prefix -> the origins it authorises. *)
type t = Asn.t list Prefix_trie.t

let empty = Prefix_trie.empty

let add_roa t ~prefix origin =
  Prefix_trie.update prefix
    (fun origins -> Some (origin :: Option.value origins ~default:[]))
    t

let validate t ~prefix ~origin =
  let covering =
    List.filter
      (fun (p, _) -> Prefix.subsumes p prefix)
      (Prefix_trie.matches (Prefix.addr prefix) t)
  in
  let authorised (p, origins) =
    Prefix.equal p prefix
    && match origin with Some o -> List.exists (Asn.equal o) origins | None -> false
  in
  if covering = [] then Not_found
  else if List.exists authorised covering then Valid
  else Invalid
