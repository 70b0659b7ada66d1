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

(* Hashtbl.Make indexes buckets by the hash's low bits, and the low
   bits of a /24's address are all zero, so the address is mixed
   (multiply, then fold the high half down) before it picks a bucket. *)
module Ptbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal

  let hash p =
    let key = (Ipv4.to_int (Prefix.addr p) lsl 6) lor Prefix.len p in
    let h = key * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)
end)

(* One neighbour's share of the Adj-RIB-In. [held] indexes the
   prefixes it has at least one route for, so [drop_peer] and the
   graceful-restart helpers touch only its own routes. *)
type peer = {
  key : string;
  held : unit Ptbl.t;
  mutable routes : int;
  mutable stale : int;  (* RFC 4724 marks among [routes] *)
}

(* One route in a prefix's candidate set. [stale] is the RFC 4724
   retention mark: a re-announce of the same path replaces the
   candidate, which clears it. *)
type cand = { owner : peer; route : Route.t; mutable stale : bool }

(* [adj_in] maps a prefix to its candidates, highest peer key first and
   each peer's paths oldest first: the order Decision resolves exact
   ties by. *)
type t = {
  adj_in : cand list Ptbl.t;
  peers : (string, peer) Hashtbl.t;
  mutable loc : Route.t Prefix_trie.t;
}

let create () =
  { adj_in = Ptbl.create 64;
    peers = Hashtbl.create 16;
    loc = Prefix_trie.empty
  }

let candidates_of t prefix =
  Option.value (Ptbl.find_opt t.adj_in prefix) ~default:[]

let set_candidates t prefix = function
  | [] -> Ptbl.remove t.adj_in prefix
  | cands -> Ptbl.replace t.adj_in prefix cands

let find_path p path_id =
  List.find_opt (fun c -> c.owner == p && c.route.Route.path_id = path_id)

let holds p = List.exists (fun c -> c.owner == p)

(* Put [c] at the end of its peer's run, replacing that peer's
   candidate with the same path-id. *)
let rec insert c = function
  | x :: rest when x.owner == c.owner ->
    if x.route.Route.path_id = c.route.Route.path_id then insert c rest
    else x :: insert c rest
  | x :: rest when String.compare x.owner.key c.owner.key > 0 ->
    x :: insert c rest
  | l -> c :: l

let routes_of cands = List.map (fun c -> c.route) cands

let recompute t prefix cands =
  let previous = Prefix_trie.find prefix t.loc in
  let current = Decision.best (routes_of cands) in
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

(* [p]'s candidates [gone] leave [prefix], whose set becomes [rest]. A
   peer with no routes left is forgotten. *)
let retire t p prefix gone rest =
  List.iter
    (fun c ->
      p.routes <- p.routes - 1;
      if c.stale then p.stale <- p.stale - 1)
    gone;
  if p.routes = 0 then Hashtbl.remove t.peers p.key;
  if not (holds p rest) then Ptbl.remove p.held prefix;
  set_candidates t prefix rest

let announce t ~peer (route : Route.t) =
  Metrics.Counter.inc m_announces;
  let p =
    match Hashtbl.find_opt t.peers peer with
    | Some p -> p
    | None ->
      let p = { key = peer; held = Ptbl.create 16; routes = 0; stale = 0 } in
      Hashtbl.replace t.peers peer p;
      p
  in
  let prefix = route.Route.prefix in
  let cands = candidates_of t prefix in
  (match find_path p route.Route.path_id cands with
  | Some old -> if old.stale then p.stale <- p.stale - 1
  | None ->
    p.routes <- p.routes + 1;
    Ptbl.replace p.held prefix ());
  let cands = insert { owner = p; route; stale = false } cands in
  Ptbl.replace t.adj_in prefix cands;
  recompute t prefix cands

let withdraw t ~peer ?(path_id = 0) prefix =
  Metrics.Counter.inc m_withdraws;
  match Hashtbl.find_opt t.peers peer with
  | Some p when Ptbl.mem p.held prefix ->
    let cands = candidates_of t prefix in
    let cands =
      match find_path p path_id cands with
      | None -> cands
      | Some old ->
        let rest = List.filter (fun c -> c != old) cands in
        retire t p prefix [ old ] rest;
        rest
    in
    recompute t prefix cands
  | Some _ | None -> None

(* Remove [p]'s candidates that satisfy [doomed], then recompute each
   prefix that lost one, in address order. *)
let remove_where t p doomed =
  Ptbl.fold (fun prefix () acc -> prefix :: acc) p.held []
  |> List.sort Prefix.compare
  |> List.filter_map (fun prefix ->
         let gone, rest =
           List.partition
             (fun c -> c.owner == p && doomed c)
             (candidates_of t prefix)
         in
         if gone = [] then None
         else begin
           retire t p prefix gone rest;
           recompute t prefix rest
         end)

let drop_peer t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> remove_where t p (fun _ -> true)

let mark_stale t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> 0
  | Some p ->
    Ptbl.iter
      (fun prefix () ->
        List.iter
          (fun c -> if c.owner == p then c.stale <- true)
          (candidates_of t prefix))
      p.held;
    p.stale <- p.routes;
    Metrics.Counter.add m_stale_marked p.routes;
    p.routes

let sweep_stale t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p ->
    Metrics.Counter.add m_stale_swept p.stale;
    if p.stale = 0 then []
    else remove_where t p (fun c -> c.stale)

let stale_count t ~peer =
  match Hashtbl.find_opt t.peers peer with Some p -> p.stale | None -> 0

let peers t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.peers []
  |> List.sort String.compare

let best t prefix = Prefix_trie.find prefix t.loc
let candidates t prefix = Decision.sort (routes_of (candidates_of t prefix))

let lookup t addr =
  Option.map snd (Prefix_trie.longest_match addr t.loc)

let fold_best f t acc = Prefix_trie.fold f t.loc acc
let best_routes t = Prefix_trie.to_list t.loc
let prefix_count t = Prefix_trie.cardinal t.loc
let route_count t = Hashtbl.fold (fun _ p n -> n + p.routes) t.peers 0
