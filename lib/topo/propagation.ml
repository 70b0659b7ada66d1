open Peering_net
module Metrics = Peering_obs.Metrics

type announcement = {
  origin : Asn.t;
  prefix : Prefix.t;
  path_suffix : Asn.t list;
  export_to : Asn.Set.t option;
}

let announce ?(path_suffix = []) ?export_to origin prefix =
  { origin; prefix; path_suffix; export_to }

type route = {
  learned_over : Relationship.t option;
  path : Asn.t list;
  ann_index : int;
}

(* "No route": the slot value of an AS that holds nothing. Compared
   physically; [ann_index] -1 keeps it apart from every real route. *)
let none = { learned_over = None; path = []; ann_index = -1 }

type result = {
  mutable view : As_graph.dense;  (* the view [routes] is indexed by *)
  mutable routes : route array;  (* by AS index; [none] where unreachable *)
  mutable count : int;  (* slots that are not [none] *)
  mutable settled : bool;
}

(* The view of a graph with no AS: what {!empty} starts from. *)
let no_view = As_graph.freeze (As_graph.create ())

let empty () = { view = no_view; routes = [||]; count = 0; settled = true }

(* Routes are immutable, so a copy shares them and copies the array. *)
let copy r = { r with routes = Array.copy r.routes }
let settled r = r.settled

(* Index [r] by [d], the graph's current view. Indices never move as a
   graph grows, so the routes keep their slots and the array only
   grows; a table that holds nothing may move to another graph. *)
let bind r (d : As_graph.dense) =
  if r.view != d then begin
    if r.view.graph_id <> d.graph_id then begin
      if r.count > 0 then
        invalid_arg "Propagation: a table is repaired on another graph";
      r.routes <- Array.make d.size none
    end
    else if d.size > Array.length r.routes then begin
      let routes = Array.make d.size none in
      Array.blit r.routes 0 routes 0 (Array.length r.routes);
      r.routes <- routes
    end;
    r.view <- d
  end

let set r i rt =
  let old = r.routes.(i) in
  if old == none then (if rt != none then r.count <- r.count + 1)
  else if rt == none then r.count <- r.count - 1;
  r.routes.(i) <- rt

(* One [Some rel] per class, shared by every imported route. *)
let over_customer = Some Relationship.Customer
let over_peer = Some Relationship.Peer
let over_provider = Some Relationship.Provider

let learned_over_of = function
  | Relationship.Customer -> over_customer
  | Relationship.Peer -> over_peer
  | Relationship.Provider -> over_provider

(* Route equality, field by field; an import shares its exporter's
   path, so the physical test usually decides the path. *)
let same_route a b =
  a == b
  || a.ann_index = b.ann_index
     && Option.equal Relationship.equal a.learned_over b.learned_over
     && (a.path == b.path || List.equal Asn.equal a.path b.path)

(* Preference class: origin 3 > customer 2 > peer 1 > provider 0. *)
let class_pref = function
  | None -> 3
  | Some rel -> Relationship.import_preference rel

(* Lexicographic AS-path comparison. Only ever reached at equal path
   length, but total on arbitrary paths for the order-law tests. *)
let rec path_lex a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b -> ( match Asn.compare x y with 0 -> path_lex a b | c -> c)

let better (a : route) (b : route) =
  (* true iff [a] strictly preferred over [b]. The path is compared in
     full — not just the next hop — and *before* the announcement
     index: a neighbor's route improving at equal class and length
     always lowers its path lexicographically, so the candidate it
     re-exports strictly beats the one it exported earlier no matter
     how the announcement index moved. That monotonicity is what keeps
     previously imported routes from going stale and makes the
     propagation fixpoint unique (see DESIGN.md). *)
  let ca = class_pref a.learned_over and cb = class_pref b.learned_over in
  if ca <> cb then ca > cb
  else
    let la = List.length a.path and lb = List.length b.path in
    if la <> lb then la < lb
    else
      match path_lex a.path b.path with
      | 0 -> a.ann_index < b.ann_index
      | c -> c < 0

(* Observability: recorded by [propagate]'s phases only; [repair] has
   its own counters below. *)
let m_offers = Metrics.counter "topo.propagation.offers"

let m_adoptions = Metrics.counter "topo.propagation.adoptions"

let m_repairs = Metrics.counter "topo.propagation.repairs"

let m_reselects = Metrics.counter "topo.propagation.reselects"

let denied deny asn ann = match deny with Some f -> f asn ann | None -> false

(* The origin route [ann] (index [i]) gives its own origin AS, or
   [none]: the origin must be up, must not appear in its own poisoned
   suffix, and must not deny the announcement. The caller checks that
   the origin is in the graph. Shared by both engines, so they apply
   the same rules. *)
let origin_route ~deny ~down i (ann : announcement) =
  if
    (not (Asn.Set.mem ann.origin down))
    && (not (List.exists (Asn.equal ann.origin) ann.path_suffix))
    && not (denied deny ann.origin ann)
  then { learned_over = None; path = ann.path_suffix; ann_index = i }
  else none

(* Selective announcement: an origin route goes only to the origin's
   chosen neighbours. *)
let withheld anns (r : route) va =
  match r.learned_over with
  | Some _ -> false
  | None -> (
    match (anns.(r.ann_index) : announcement).export_to with
    | Some allowed -> not (Asn.Set.mem va allowed)
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Re-selection. A stable table is one in which every AS holds the best
   (under [better]) of its origin routes and of the routes its
   neighbours' current routes export to it. Starting from [prev], only
   the ASes in [toggled] can be unstable; re-selecting them and,
   transitively, every neighbour that either routed through a changed
   AS or prefers its new offer restores stability while touching only
   what changes. In a valley-free world the stable table is unique and
   re-selection always reaches it (DESIGN.md §9, "Incremental repair");
   leak edges can build a dispute wheel, so each call stops after a
   fixed budget of re-selections. *)

(* Re-selections one [repair] call may run, per AS of the graph. A
   run from the empty table re-selects each AS about once in a
   valley-free world, and settled leaky runs on the @check-diff worlds
   need at most about three. *)
let reselect_budget = 64

(* The route AS [v] is offered when neighbour [u], holding [r], exports
   it over the edge on which [v] plays [rel_uv] for [u], or [none]:
   both ends up, Gao–Rexford or a [leak u v] edge, selective export,
   the loop check, [export_filter] and then [v]'s [import_filter].
   [deny] is left to the caller. A route whose announcement index lies
   past the end of [anns] belongs to a withdrawn announcement and is
   never offered. *)
let offer ~down ~leak ~export_filter ~import_filter anns
    (d : As_graph.dense) u (r : route) v rel_uv =
  let ua = d.asns.(u) and va = d.asns.(v) in
  if
    r.ann_index >= Array.length anns
    || Asn.Set.mem ua down || Asn.Set.mem va down
    || (not
          (Relationship.exports_to ~learned_from:r.learned_over rel_uv
          || match leak with Some f -> f ua va | None -> false))
    || withheld anns r va
    || List.exists (Asn.equal va) r.path
    || not
         (match export_filter with
         | Some f -> f ua va anns.(r.ann_index) r
         | None -> true)
  then none
  else
    let cand =
      { learned_over = learned_over_of (Relationship.invert rel_uv);
        path = ua :: r.path;
        ann_index = r.ann_index
      }
    in
    match import_filter with
    | Some f when not (f va ~from:ua cand) -> none
    | Some _ | None -> cand

(* Re-select from [seeds], indices in ascending ASN order, on [prev],
   already bound to [d]. [outside] counts seeds the graph does not
   hold: each is re-selected to nothing, so it is only counted. *)
let reselect_from ?deny ?leak ?export_filter ?import_filter ~down
    (d : As_graph.dense) anns prev ~seeds ~outside =
  Metrics.Counter.inc m_repairs;
  let routes = prev.routes and asns = d.asns in
  let offer u r v rel_uv =
    offer ~down ~leak ~export_filter ~import_filter anns d u r v rel_uv
  in
  (* [cand] would displace [cur] at [v]; [deny] is consulted last, and
     only for a candidate that would otherwise win. *)
  let beats v cand cur =
    (cur == none || better cand cur)
    && not (denied deny asns.(v) anns.(cand.ann_index))
  in
  let reselect v =
    Metrics.Counter.inc m_reselects;
    let va = asns.(v) in
    if Asn.Set.mem va down then none
    else begin
      let best = ref none in
      let consider cand =
        if cand != none && beats v cand !best then best := cand
      in
      Array.iteri
        (fun i (ann : announcement) ->
          if Asn.equal ann.origin va then
            consider (origin_route ~deny ~down i ann))
        anns;
      for k = d.first.(v) to d.first.(v + 1) - 1 do
        let u = d.nbr.(k) in
        let r = routes.(u) in
        if r != none then
          consider (offer u r v (Relationship.invert d.rel.(k)))
      done;
      !best
    end
  in
  (* The work list: a ring of at most [d.size] indices, with an AS
     queued iff its mark is this call's epoch. *)
  let epoch = As_graph.next_epoch d in
  let mark = d.mark and ring = d.ring and cap = d.size in
  let head = ref 0 and len = ref 0 in
  let enqueue v =
    if mark.(v) <> epoch then begin
      mark.(v) <- epoch;
      let j = !head + !len in
      ring.(if j >= cap then j - cap else j) <- v;
      incr len
    end
  in
  let pop () =
    let v = ring.(!head) in
    head := if !head + 1 = cap then 0 else !head + 1;
    decr len;
    mark.(v) <- 0;
    v
  in
  (* [u]'s route changed to [now]: a neighbour must re-select when its
     route was learned from [u] or [u]'s new offer beats it. Every
     other neighbour keeps a route that is still offered and still
     best. *)
  let notify u now =
    let ua = asns.(u) in
    for k = d.first.(u) to d.first.(u + 1) - 1 do
      let v = d.nbr.(k) in
      if mark.(v) <> epoch then begin
        let cur = routes.(v) in
        let via_u =
          match cur with
          | { learned_over = Some _; path = hop :: _; _ } -> Asn.equal hop ua
          | _ -> false
        in
        if
          via_u
          || now != none
             &&
             let cand = offer u now v d.rel.(k) in
             cand != none && beats v cand cur
        then enqueue v
      end
    done
  in
  (* An unsettled table may hold unstable ASes anywhere. *)
  if not prev.settled then Array.iter enqueue d.by_asn;
  List.iter enqueue seeds;
  Metrics.Counter.add m_reselects outside;
  let budget = ref ((reselect_budget * (d.size + 1)) - outside) in
  while !len > 0 && !budget > 0 do
    decr budget;
    let v = pop () in
    let before = routes.(v) in
    let now = reselect v in
    if not (same_route now before) then begin
      set prev v now;
      notify v now
    end
  done;
  prev.settled <- !len = 0

let repair ?deny ?leak ?export_filter ?import_filter ~down graph announcements
    prev ~toggled =
  let d = As_graph.freeze graph in
  bind prev d;
  let outside = ref 0 in
  let seeds =
    Asn.Set.fold
      (fun a acc ->
        match As_graph.index d a with
        | -1 ->
          incr outside;
          acc
        | v -> v :: acc)
      toggled []
  in
  reselect_from ?deny ?leak ?export_filter ?import_filter ~down d
    (Array.of_list announcements) prev ~seeds:(List.rev seeds)
    ~outside:!outside

(* ------------------------------------------------------------------ *)
(* The valley-free engine: the classic three-phase work-queue fixpoint,
   with queues seeded in ascending ASN order. *)

(* ASes whose imported route no longer extends its next hop's current
   route, as indices in ascending ASN order. An import copies the
   exporter's path, so the physical test almost always decides. *)
let stale_imports (d : As_graph.dense) routes =
  Array.fold_right
    (fun v acc ->
      match routes.(v) with
      | { learned_over = Some _; path = hop :: tl; ann_index } -> (
        match As_graph.index d hop with
        | -1 -> v :: acc
        | u ->
          let h = routes.(u) in
          if
            h != none && h.ann_index = ann_index
            && (tl == h.path || List.equal Asn.equal tl h.path)
          then acc
          else v :: acc)
      | _ -> acc)
    d.by_asn []

let propagate ?deny ?(down = Asn.Set.empty) ?domains:_ ?visit graph
    announcements =
  let d = As_graph.freeze graph in
  let result =
    { view = d; routes = Array.make d.size none; count = 0; settled = true }
  in
  let routes = result.routes and asns = d.asns in
  let anns = Array.of_list announcements in
  let note u = match visit with Some f -> f asns.(u) | None -> () in
  List.iteri
    (fun i (ann : announcement) ->
      match As_graph.index d ann.origin with
      | -1 -> ()
      | o ->
        let r = origin_route ~deny ~down i ann in
        if r != none && (routes.(o) == none || better r routes.(o)) then
          set result o r)
    announcements;
  let is_down v = Asn.Set.mem asns.(v) down in
  (* Offer [r] to [v]; return true if adopted. *)
  let offer v (r : route) =
    if is_down v then false
    else if List.exists (Asn.equal asns.(v)) r.path then false (* loop *)
    else begin
      Metrics.Counter.inc m_offers;
      if denied deny asns.(v) anns.(r.ann_index) then false
      else if routes.(v) != none && not (better r routes.(v)) then false
      else begin
        set result v r;
        Metrics.Counter.inc m_adoptions;
        true
      end
    end
  in
  (* Export the route at [u] to neighbor [v] over [rel_uv] ([v]'s role
     from [u]'s perspective); import class at [v] is the inverse. *)
  let try_export u v rel_uv =
    let r = routes.(u) in
    r != none
    && (not (is_down u))
    && Relationship.exports_to ~learned_from:r.learned_over rel_uv
    && (not (withheld anns r asns.(v)))
    && offer v
         { learned_over = learned_over_of (Relationship.invert rel_uv);
           path = asns.(u) :: r.path;
           ann_index = r.ann_index
         }
  in
  (* Indices holding a route, in ascending ASN order. *)
  let holders () =
    Array.fold_right
      (fun v acc -> if routes.(v) != none then v :: acc else acc)
      d.by_asn []
  in
  (* Phases 1 and 3: push routes over [want] edges to a fixpoint. *)
  let climb want =
    let queue = Queue.create () in
    List.iter (fun v -> Queue.push v queue) (holders ());
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      note u;
      for k = d.first.(u) to d.first.(u + 1) - 1 do
        if Relationship.equal d.rel.(k) want && try_export u d.nbr.(k) want
        then Queue.push d.nbr.(k) queue
      done
    done
  in
  (* Phase 1: customer routes climb provider edges to a fixpoint. *)
  climb Relationship.Provider;
  (* Phase 2: one hop across peer edges. Snapshot holders first so a
     freshly imported peer route is not re-exported to peers. *)
  List.iter
    (fun u ->
      for k = d.first.(u) to d.first.(u + 1) - 1 do
        if Relationship.equal d.rel.(k) Relationship.Peer then
          ignore (try_export u d.nbr.(k) Relationship.Peer)
      done)
    (holders ());
  (* Phase 3: descend customer edges to a fixpoint. *)
  climb Relationship.Customer;
  (* An importer that denies the announcement its neighbour switched to
     keeps the route the neighbour dropped; re-select those importers. *)
  (match deny with
  | None -> ()
  | Some _ -> (
    match stale_imports d routes with
    | [] -> ()
    | seeds -> reselect_from ?deny ~down d anns result ~seeds ~outside:0));
  result

let propagate_seq graph announcements = propagate graph announcements

(* ------------------------------------------------------------------ *)
(* Announcement deltas. Every stable route chains back through its
   next hops to the origin route it derives from, so an announcement
   change unsettles only its origin (whose origin routes change, and
   whose re-selection then re-selects every holder of the slot through
   [repair]'s notify cascade) and, when only the export set moved, the
   neighbours that gained or lost the origin's offer. *)

(* [Testbed] shares untouched slots, and a full export's peer set,
   physically, so the physical tests decide a no-op re-announcement
   without walking a 604-peer set. *)
let same_export = Option.equal (fun a b -> a == b || Asn.Set.equal a b)

let same_announcement (a : announcement) (b : announcement) =
  a == b
  || Asn.equal a.origin b.origin
     && Prefix.equal a.prefix b.prefix
     && List.equal Asn.equal a.path_suffix b.path_suffix
     && same_export a.export_to b.export_to

(* The neighbours [ann]'s origin offers its origin route to, before
   Gao–Rexford: [None] means all of them. *)
let export_set graph (ann : announcement) =
  match ann.export_to with
  | Some s -> s
  | None when As_graph.mem graph ann.origin ->
    Asn.Set.of_list (List.map fst (As_graph.neighbors graph ann.origin))
  | None -> Asn.Set.empty

(* The ASes a replacement of slot [a] by [b] can unsettle. *)
let replaced_seeds graph (a : announcement) (b : announcement) =
  if not (Prefix.equal a.prefix b.prefix) then
    invalid_arg "Propagation.update: a replaced slot changed its prefix";
  let origins = Asn.Set.of_list [ a.origin; b.origin ] in
  if same_export a.export_to b.export_to then origins
  else
    let ea = export_set graph a and eb = export_set graph b in
    Asn.Set.union origins
      (Asn.Set.union (Asn.Set.diff ea eb) (Asn.Set.diff eb ea))

let update ?deny ?leak ~down graph ~before ~after prev =
  let old = Array.of_list before and anns = Array.of_list after in
  let n = Array.length old in
  (* [anns.(j)] equals [old.(j + shift)] for every [j >= from] both
     arrays hold. *)
  let same_from from shift =
    let last = min (Array.length anns) (n - shift) - 1 in
    let rec go j =
      j > last || (same_announcement anns.(j) old.(j + shift) && go (j + 1))
    in
    go from
  in
  let toggled =
    match Array.length anns - n with
    | 0 ->
      let seeds = ref Asn.Set.empty in
      Array.iteri
        (fun i a ->
          if not (same_announcement a anns.(i)) then
            seeds := Asn.Set.union !seeds (replaced_seeds graph a anns.(i)))
        old;
      !seeds
    | 1 when same_from 0 0 -> Asn.Set.singleton anns.(n).origin
    | -1 ->
      (* The removed slot [k] is the first that differs. Its routes move
         past the end of [anns] (withdrawn for [repair]); the slots above
         it shift down, keeping their order. *)
      let k = ref 0 in
      while !k < n - 1 && same_announcement old.(!k) anns.(!k) do
        incr k
      done;
      let k = !k in
      if not (same_from k 1) then
        invalid_arg "Propagation.update: after is not before less one slot";
      if k < n - 1 then
        Array.iteri
          (fun v (r : route) ->
            if r.ann_index = k then prev.routes.(v) <- { r with ann_index = n - 1 }
            else if r.ann_index > k then
              prev.routes.(v) <- { r with ann_index = r.ann_index - 1 })
          prev.routes;
      Asn.Set.singleton old.(k).origin
    | _ ->
      invalid_arg
        "Propagation.update: after must replace slots, append one or remove one"
  in
  if not (Asn.Set.is_empty toggled) then
    repair ?deny ?leak ~down graph after prev ~toggled

(* ------------------------------------------------------------------ *)

let route_at r asn =
  match As_graph.index r.view asn with
  | -1 -> None
  | v -> if r.routes.(v) == none then None else Some r.routes.(v)

let path_at r asn = Option.map (fun rt -> rt.path) (route_at r asn)

let full_path r asn =
  Option.map (fun rt -> asn :: rt.path) (route_at r asn)

(* Fold [f asn route] over the holders in descending ASN order, so
   consing builds an ascending list. *)
let fold_holders f r acc =
  let d = r.view in
  let acc = ref acc in
  for k = d.size - 1 downto 0 do
    let v = d.by_asn.(k) in
    if r.routes.(v) != none then acc := f d.asns.(v) r.routes.(v) !acc
  done;
  !acc

let table r = fold_holders (fun asn rt acc -> (asn, rt) :: acc) r []
let reachable r = fold_holders (fun asn _ acc -> asn :: acc) r []
let reachable_count r = r.count

let catchment r =
  let top = Array.fold_left (fun m (rt : route) -> max m rt.ann_index) (-1) r.routes in
  let counts = Array.make (top + 1) 0 in
  Array.iter
    (fun (rt : route) ->
      if rt != none then counts.(rt.ann_index) <- counts.(rt.ann_index) + 1)
    r.routes;
  List.filter (fun (_, c) -> c > 0) (List.init (top + 1) (fun i -> (i, counts.(i))))

let routes_via r via =
  fold_holders
    (fun asn (rt : route) acc ->
      if List.exists (Asn.equal via) rt.path && not (Asn.equal asn via) then
        asn :: acc
      else acc)
    r []

(* Walking a selected full path from the selecting AS towards the
   origin, the import classes are c_i = relationship g a_i a_{i+1}
   (a_i learned the route from a_{i+1}). The path crossed a
   Gao–Rexford-violating export exactly when some adjacent pair is
   forbidden: a hop whose exporter held a peer- or provider-learned
   route (c_{i+1} ∈ {Peer, Provider}) exported it other than to a
   customer (c_i ≠ Provider). Equivalently the class word read
   self→origin leaves the regular shape Provider* Peer? Customer*.
   Unlabelled adjacent pairs come from poisoned suffixes and end the
   walk. *)
let polluted graph r =
  let path_violates fp =
    let rec walk prev = function
      | a :: (b :: _ as rest) -> (
        match As_graph.relationship graph a b with
        | None -> false
        | Some c ->
          let forbidden =
            match (prev, c) with
            | Some (Relationship.Peer | Relationship.Customer),
              (Relationship.Peer | Relationship.Provider) ->
              true
            | _ -> false
          in
          forbidden || walk (Some c) rest)
      | _ -> false
    in
    walk None fp
  in
  fold_holders
    (fun self (rt : route) acc ->
      if path_violates (self :: rt.path) then self :: acc else acc)
    r []
