open Peering_net
module Metrics = Peering_obs.Metrics

let m_announces = Metrics.counter "bgp.rib.announces"

let m_withdraws = Metrics.counter "bgp.rib.withdraws"

let m_loc_changes = Metrics.counter "bgp.rib.loc_changes"

let m_stale_marked = Metrics.counter "bgp.rib.stale_marked"

let m_stale_swept = Metrics.counter "bgp.rib.stale_swept"

type change = { prefix : Prefix.t; current : Route.t option }

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

(* One neighbour's share of the Adj-RIB-In. [held.(0 .. n_held - 1)]
   lists every prefix it has at least one route for, in no order; it
   may repeat a prefix or keep one the peer has since lost, and
   [held_prefixes] sorts and filters it. [prefixes] counts the prefixes
   it does hold, so a full array with no repeat or loss in it grows by
   copying, without that sort. *)
type peer = {
  key : string;
  mutable held : Prefix.t array;
  mutable n_held : int;
  mutable prefixes : int;
  mutable routes : int;
  mutable stale : int;  (* RFC 4724 marks among [routes] *)
}

(* One route in a prefix's candidate set. [stale] is the RFC 4724
   retention mark: a re-announce of the same path replaces the
   candidate, which clears it. *)
type cand = { owner : peer; route : Route.t; mutable stale : bool }

(* A prefix's candidates, highest peer key first and each peer's paths
   oldest first (the order Decision resolves exact ties by), beside
   its Loc-RIB best. A slot is in [adj_in] exactly while it has a
   candidate. *)
type slot = { mutable cands : cand list; mutable best : Route.t option }

(* [by_len.(l)] counts the Loc-RIB prefixes of length [l], so [lookup]
   probes only lengths that have one. *)
type t = {
  adj_in : slot Ptbl.t;
  peers : (string, peer) Hashtbl.t;
  by_len : int array;
}

let create () =
  { adj_in = Ptbl.create 64;
    peers = Hashtbl.create 16;
    by_len = Array.make 33 0
  }

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

(* The prefixes [p] holds, once each and in address order, with their
   slots. *)
let held_prefixes t p =
  Array.sub p.held 0 p.n_held
  |> Array.to_list
  |> List.sort_uniq Prefix.compare
  |> List.filter_map (fun prefix ->
         match Ptbl.find_opt t.adj_in prefix with
         | Some slot when holds p slot.cands -> Some (prefix, slot)
         | Some _ | None -> None)

(* Record that [p] now holds [prefix]. A full index is rebuilt from
   the [n] prefixes [p] holds, at length [2n + 16]; with no repeat or
   loss in it, that is a copy. *)
let add_held t p prefix =
  if p.n_held = Array.length p.held then begin
    let live =
      if p.prefixes = p.n_held then p.held
      else Array.of_list (List.map fst (held_prefixes t p))
    in
    let n = p.prefixes in
    let held = Array.make ((2 * n) + 16) prefix in
    Array.blit live 0 held 0 n;
    p.held <- held;
    p.n_held <- n
  end;
  p.held.(p.n_held) <- prefix;
  p.n_held <- p.n_held + 1;
  p.prefixes <- p.prefixes + 1

let count_len t prefix d =
  let l = Prefix.len prefix in
  t.by_len.(l) <- t.by_len.(l) + d

let recompute t prefix slot =
  let previous = slot.best in
  let current = Decision.best (routes_of slot.cands) in
  let changed =
    match (previous, current) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    Metrics.Counter.inc m_loc_changes;
    slot.best <- current;
    (match (previous, current) with
    | None, Some _ -> count_len t prefix 1
    | Some _, None -> count_len t prefix (-1)
    | None, None | Some _, Some _ -> ());
    Some { prefix; current }
  end
  else None

(* [p]'s candidates [gone] leave [slot], whose set becomes [rest];
   then [prefix]'s best is recomputed. A peer with no routes left is
   forgotten, and a slot with no candidates left is dropped. *)
let retire t p prefix slot gone rest =
  List.iter
    (fun c ->
      p.routes <- p.routes - 1;
      if c.stale then p.stale <- p.stale - 1)
    gone;
  if p.routes = 0 then Hashtbl.remove t.peers p.key;
  if not (holds p rest) then p.prefixes <- p.prefixes - 1;
  slot.cands <- rest;
  let change = recompute t prefix slot in
  if rest = [] then Ptbl.remove t.adj_in prefix;
  change

let announce t ~peer (route : Route.t) =
  Metrics.Counter.inc m_announces;
  let p =
    match Hashtbl.find_opt t.peers peer with
    | Some p -> p
    | None ->
      let p =
        { key = peer; held = [||]; n_held = 0; prefixes = 0; routes = 0;
          stale = 0 }
      in
      Hashtbl.replace t.peers peer p;
      p
  in
  let prefix = route.Route.prefix in
  let slot =
    match Ptbl.find_opt t.adj_in prefix with
    | Some slot -> slot
    | None ->
      let slot = { cands = []; best = None } in
      Ptbl.add t.adj_in prefix slot;
      slot
  in
  (match find_path p route.Route.path_id slot.cands with
  | Some old -> if old.stale then p.stale <- p.stale - 1
  | None ->
    if not (holds p slot.cands) then add_held t p prefix;
    p.routes <- p.routes + 1);
  slot.cands <- insert { owner = p; route; stale = false } slot.cands;
  recompute t prefix slot

let withdraw t ~peer ?(path_id = 0) prefix =
  Metrics.Counter.inc m_withdraws;
  match (Hashtbl.find_opt t.peers peer, Ptbl.find_opt t.adj_in prefix) with
  | Some p, Some slot when holds p slot.cands -> (
    match find_path p path_id slot.cands with
    | None -> recompute t prefix slot
    | Some old ->
      let rest = List.filter (fun c -> c != old) slot.cands in
      retire t p prefix slot [ old ] rest)
  | _ -> None

(* Remove [p]'s candidates that satisfy [doomed], then recompute each
   prefix that lost one, in address order. *)
let remove_where t p doomed =
  held_prefixes t p
  |> List.filter_map (fun (prefix, slot) ->
         let gone, rest =
           List.partition (fun c -> c.owner == p && doomed c) slot.cands
         in
         if gone = [] then None else retire t p prefix slot gone rest)

let drop_peer t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> remove_where t p (fun _ -> true)

let mark_stale t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> 0
  | Some p ->
    List.iter
      (fun (_, slot) ->
        List.iter (fun c -> if c.owner == p then c.stale <- true) slot.cands)
      (held_prefixes t p);
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

let best t prefix =
  match Ptbl.find_opt t.adj_in prefix with
  | Some slot -> slot.best
  | None -> None

let candidates t prefix =
  match Ptbl.find_opt t.adj_in prefix with
  | Some slot -> Decision.sort (routes_of slot.cands)
  | None -> []

(* Probe the slots from /32 down, skipping lengths with no Loc-RIB
   prefix. *)
let lookup t addr =
  let rec probe len =
    if len < 0 then None
    else if t.by_len.(len) = 0 then probe (len - 1)
    else
      match Ptbl.find_opt t.adj_in (Prefix.make addr len) with
      | Some { best = Some _ as best; _ } -> best
      | Some { best = None; _ } | None -> probe (len - 1)
  in
  probe 32

let best_routes t =
  Ptbl.fold
    (fun prefix slot acc ->
      match slot.best with Some r -> (prefix, r) :: acc | None -> acc)
    t.adj_in []
  |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)

let fold_best f t acc =
  List.fold_left (fun acc (prefix, r) -> f prefix r acc) acc (best_routes t)

let prefix_count t = Array.fold_left ( + ) 0 t.by_len
let route_count t = Hashtbl.fold (fun _ p n -> n + p.routes) t.peers 0
