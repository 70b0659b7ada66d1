open Peering_net

type roa = {
  prefix : Prefix.t;
  max_length : int;
  origin : Asn.t;
}

type validity = Valid | Invalid | Not_found

type t = roa list Prefix_trie.t

let empty = Prefix_trie.empty

let add_roa t ?max_length ~prefix origin =
  let max_length = Option.value max_length ~default:(Prefix.len prefix) in
  if max_length < Prefix.len prefix || max_length > 32 then
    invalid_arg "Rpki.add_roa: bad max_length";
  let roa = { prefix; max_length; origin } in
  Prefix_trie.update prefix
    (function
      | Some roas -> Some (roa :: roas)
      | None -> Some [ roa ])
    t

let covering t prefix =
  Prefix_trie.matches (Prefix.addr prefix) t
  |> List.concat_map (fun (covering_prefix, roas) ->
         if Prefix.subsumes covering_prefix prefix then roas else [])

let validate t ~prefix ~origin =
  match covering t prefix with
  | [] -> Not_found
  | roas -> (
    match origin with
    | None -> Invalid
    | Some o ->
      if
        List.exists
          (fun roa ->
            Asn.equal roa.origin o && Prefix.len prefix <= roa.max_length)
          roas
      then Valid
      else Invalid)
