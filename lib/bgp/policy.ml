open Peering_net

type cond =
  | Prefix_in of (Prefix.t * int * int) list
  | Path_contains of Asn.t
  | Has_community of Community.t
  | Not of cond
  | All of cond list
  | Any of cond list

type action =
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Community.t
  | Clear_communities
  | Prepend of Asn.t * int
  | Set_next_hop of Ipv4.t

type decision = Permit | Deny

type entry = {
  seq : int;
  decision : decision;
  conds : cond list;
  actions : action list;
}

type t = entry list (* sorted by seq *)

let permit_all =
  [ { seq = 10; decision = Permit; conds = []; actions = [] } ]

let of_entries l =
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) l in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.seq = b.seq then invalid_arg "Policy.of_entries: duplicate seq";
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

let entries t = t

let rec eval_cond cond (r : Route.t) =
  let path = r.attrs.Attrs.as_path in
  match cond with
  | Prefix_in l ->
    List.exists
      (fun (p, ge, le) ->
        Prefix.subsumes p r.prefix
        && Prefix.len r.prefix >= ge
        && Prefix.len r.prefix <= le)
      l
  | Path_contains a -> As_path.mem a path
  | Has_community c -> Attrs.has_community c r.attrs
  | Not c -> not (eval_cond c r)
  | All cs -> List.for_all (fun c -> eval_cond c r) cs
  | Any cs -> List.exists (fun c -> eval_cond c r) cs

let apply_action (r : Route.t) action =
  let attrs = r.attrs in
  let attrs =
    match action with
    | Set_local_pref lp -> Attrs.with_local_pref (Some lp) attrs
    | Set_med med -> Attrs.with_med med attrs
    | Add_community c -> Attrs.add_community c attrs
    | Clear_communities -> Attrs.with_communities [] attrs
    | Prepend (a, n) ->
      { attrs with Attrs.as_path = As_path.prepend_n a n attrs.Attrs.as_path }
    | Set_next_hop nh -> Attrs.with_next_hop nh attrs
  in
  { r with Route.attrs }

let apply t r =
  let matches e = List.for_all (fun c -> eval_cond c r) e.conds in
  match List.find_opt matches t with
  | None -> None
  | Some e -> (
    match e.decision with
    | Deny -> None
    | Permit -> Some (List.fold_left apply_action r e.actions))
