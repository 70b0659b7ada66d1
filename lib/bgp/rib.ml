open Peering_net
module Metrics = Peering_obs.Metrics

let m_announces =
  Metrics.counter ~help:"routes offered to Adj-RIB-In" "bgp.rib.announces"

let m_withdraws =
  Metrics.counter ~help:"withdrawals applied to Adj-RIB-In" "bgp.rib.withdraws"

let m_loc_changes =
  Metrics.counter ~help:"Loc-RIB best-route changes" "bgp.rib.loc_changes"

let m_stale_marked =
  Metrics.counter ~help:"routes marked stale on graceful-restart entry"
    "bgp.rib.stale_marked"

let m_stale_swept =
  Metrics.counter ~help:"stale routes withdrawn after graceful-restart sweep"
    "bgp.rib.stale_swept"

type change = {
  prefix : Prefix.t;
  previous : Route.t option;
  current : Route.t option;
}

module Smap = Map.Make (String)

(* Stale entries are keyed (path_id, prefix-string): RFC 4724 retention
   operates per announced path, and a re-announce of the same path
   refreshes exactly that entry. *)
module Stale_set = Set.Make (struct
  type t = int * string

  let compare = compare
end)

type t = {
  mutable adj_in : Route.t list Prefix_trie.t Smap.t;
  mutable loc : Route.t Prefix_trie.t;
  mutable stale : Stale_set.t Smap.t;
}

let create () =
  { adj_in = Smap.empty; loc = Prefix_trie.empty; stale = Smap.empty }

let stale_key (path_id : int) prefix = (path_id, Prefix.to_string prefix)

let peer_stale t peer =
  Option.value (Smap.find_opt peer t.stale) ~default:Stale_set.empty

let set_peer_stale t peer set =
  if Stale_set.is_empty set then t.stale <- Smap.remove peer t.stale
  else t.stale <- Smap.add peer set t.stale

let clear_stale t ~peer ~path_id prefix =
  let set = peer_stale t peer in
  let key = stale_key path_id prefix in
  if Stale_set.mem key set then set_peer_stale t peer (Stale_set.remove key set)

let stale_count t ~peer = Stale_set.cardinal (peer_stale t peer)

let peer_table t peer =
  match Smap.find_opt peer t.adj_in with
  | Some tbl -> tbl
  | None -> Prefix_trie.empty

let set_peer_table t peer tbl =
  if Prefix_trie.is_empty tbl then t.adj_in <- Smap.remove peer t.adj_in
  else t.adj_in <- Smap.add peer tbl t.adj_in

let all_candidates t prefix =
  Smap.fold
    (fun _peer tbl acc ->
      match Prefix_trie.find prefix tbl with
      | Some routes -> List.rev_append routes acc
      | None -> acc)
    t.adj_in []

let recompute t prefix =
  let previous = Prefix_trie.find prefix t.loc in
  let current = Decision.best (all_candidates t prefix) in
  let changed =
    match (previous, current) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    Metrics.Counter.inc m_loc_changes;
    (match current with
    | Some r -> t.loc <- Prefix_trie.add prefix r t.loc
    | None -> t.loc <- Prefix_trie.remove prefix t.loc);
    Some { prefix; previous; current }
  end
  else None

let announce t ~peer (route : Route.t) =
  Metrics.Counter.inc m_announces;
  let tbl = peer_table t peer in
  let prefix = route.Route.prefix in
  let existing = Option.value (Prefix_trie.find prefix tbl) ~default:[] in
  let without =
    List.filter (fun (r : Route.t) -> r.path_id <> route.path_id) existing
  in
  set_peer_table t peer (Prefix_trie.add prefix (route :: without) tbl);
  (* A fresh announcement refreshes any stale entry for this path. *)
  clear_stale t ~peer ~path_id:route.Route.path_id prefix;
  recompute t prefix

let withdraw t ~peer ?(path_id = 0) prefix =
  Metrics.Counter.inc m_withdraws;
  clear_stale t ~peer ~path_id prefix;
  let tbl = peer_table t peer in
  match Prefix_trie.find prefix tbl with
  | None -> None
  | Some routes ->
    let remaining =
      List.filter (fun (r : Route.t) -> r.path_id <> path_id) routes
    in
    let tbl =
      if remaining = [] then Prefix_trie.remove prefix tbl
      else Prefix_trie.add prefix remaining tbl
    in
    set_peer_table t peer tbl;
    recompute t prefix

let drop_peer t ~peer =
  let tbl = peer_table t peer in
  let prefixes = List.map fst (Prefix_trie.to_list tbl) in
  set_peer_table t peer Prefix_trie.empty;
  set_peer_stale t peer Stale_set.empty;
  List.filter_map (recompute t) prefixes

let mark_stale t ~peer =
  let tbl = peer_table t peer in
  let set =
    Prefix_trie.fold
      (fun prefix routes acc ->
        List.fold_left
          (fun acc (r : Route.t) ->
            Stale_set.add (stale_key r.path_id prefix) acc)
          acc routes)
      tbl Stale_set.empty
  in
  set_peer_stale t peer set;
  let n = Stale_set.cardinal set in
  Metrics.Counter.add m_stale_marked n;
  n

let sweep_stale t ~peer =
  let set = peer_stale t peer in
  set_peer_stale t peer Stale_set.empty;
  Metrics.Counter.add m_stale_swept (Stale_set.cardinal set);
  (* Remove every still-stale (path, prefix) from the Adj-RIB-In, then
     recompute each affected prefix once, in address order. *)
  let entries = Prefix_trie.to_list (peer_table t peer) in
  let tbl, touched =
    List.fold_left
      (fun (tbl_acc, touched) (prefix, routes) ->
        let keep =
          List.filter
            (fun (r : Route.t) ->
              not (Stale_set.mem (stale_key r.path_id prefix) set))
            routes
        in
        if List.length keep = List.length routes then (tbl_acc, touched)
        else
          let tbl_acc =
            if keep = [] then Prefix_trie.remove prefix tbl_acc
            else Prefix_trie.add prefix keep tbl_acc
          in
          (tbl_acc, prefix :: touched))
      (peer_table t peer, [])
      entries
  in
  set_peer_table t peer tbl;
  List.filter_map (recompute t) (List.rev touched)

let peers t = List.map fst (Smap.bindings t.adj_in)
let best t prefix = Prefix_trie.find prefix t.loc
let candidates t prefix = Decision.sort (all_candidates t prefix)

let lookup t addr =
  Option.map snd (Prefix_trie.longest_match addr t.loc)

let fold_best f t acc = Prefix_trie.fold f t.loc acc
let best_routes t = Prefix_trie.to_list t.loc
let prefix_count t = Prefix_trie.cardinal t.loc

let route_count t =
  Smap.fold
    (fun _ tbl acc ->
      Prefix_trie.fold (fun _ routes n -> n + List.length routes) tbl acc)
    t.adj_in 0
