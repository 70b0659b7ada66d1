open Peering_net

type kind =
  | Tier1
  | Large_transit
  | Small_transit
  | Stub
  | Content
  | Enterprise

let kind_to_string = function
  | Tier1 -> "tier1"
  | Large_transit -> "large-transit"
  | Small_transit -> "small-transit"
  | Stub -> "stub"
  | Content -> "content"
  | Enterprise -> "enterprise"

type node = {
  asn : Asn.t;
  country : Country.t;
  kind : kind;
}

type entry = {
  info : node;
  index : int;  (* insertion order: the AS's index in every dense view *)
  mutable adj : Relationship.t Asn.Map.t;  (* edges the last view lacks *)
  mutable prefixes : Prefix.Set.t;
}

type dense = {
  size : int;
  asns : Asn.t array;
  by_asn : int array;
  sorted : Asn.t array;
  first : int array;
  nbr : int array;
  rel : Relationship.t array;
  graph_id : int;
  mark : int array;
  ring : int array;
  mutable epoch : int;
}

(* An AS's edges are its row in [last] plus its [adj]: a freeze merges
   the two into a new view and empties every [adj], so a frozen graph
   keeps its adjacency in the CSR arrays alone. *)
type t = {
  id : int;
  nodes : (int, entry) Hashtbl.t;
  mutable origin_index : Asn.t Prefix.Map.t;
  mutable edge_count : int;
  mutable prefix_count : int;
  mutable last : dense;  (* the latest view built *)
  mutable stale : bool;  (* an AS or an edge was added since [last] *)
}

let next_id = ref 0

let view_of_nothing id =
  { size = 0;
    asns = [||];
    by_asn = [||];
    sorted = [||];
    first = [| 0 |];
    nbr = [||];
    rel = [||];
    graph_id = id;
    mark = [||];
    ring = [||];
    epoch = 0
  }

let create () =
  incr next_id;
  { id = !next_id;
    nodes = Hashtbl.create 1024;
    origin_index = Prefix.Map.empty;
    edge_count = 0;
    prefix_count = 0;
    last = view_of_nothing !next_id;
    stale = true
  }

let entry t asn = Hashtbl.find_opt t.nodes (Asn.to_int asn)

let entry_exn t asn =
  match entry t asn with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn))

let add_as t ?(country = Country.nl) ?(kind = Stub) asn =
  if Hashtbl.mem t.nodes (Asn.to_int asn) then
    invalid_arg (Printf.sprintf "As_graph.add_as: duplicate %s" (Asn.to_string asn));
  Hashtbl.replace t.nodes (Asn.to_int asn)
    { info = { asn; country; kind };
      index = Hashtbl.length t.nodes;
      adj = Asn.Map.empty;
      prefixes = Prefix.Set.empty
    };
  t.stale <- true

(* [b]'s role in row [i] of [d], by binary search: rows are in ASN
   order. *)
let in_row d i b =
  let x = Asn.to_int b in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      let y = Asn.to_int d.asns.(d.nbr.(mid)) in
      if y = x then Some d.rel.(mid)
      else if y < x then search (mid + 1) hi
      else search lo mid
  in
  if i >= d.size then None else search d.first.(i) d.first.(i + 1)

let relationship_of t (e : entry) b =
  match Asn.Map.find_opt b e.adj with
  | Some _ as r -> r
  | None -> in_row t.last e.index b

let add_edge t a rel b =
  if Asn.equal a b then invalid_arg "As_graph.add_edge: self loop";
  let ea = entry_exn t a and eb = entry_exn t b in
  if relationship_of t ea b <> None then
    invalid_arg "As_graph.add_edge: duplicate edge";
  ea.adj <- Asn.Map.add b rel ea.adj;
  eb.adj <- Asn.Map.add a (Relationship.invert rel) eb.adj;
  t.edge_count <- t.edge_count + 1;
  t.stale <- true

let originate t asn p =
  let e = entry_exn t asn in
  if not (Prefix.Set.mem p e.prefixes) then begin
    e.prefixes <- Prefix.Set.add p e.prefixes;
    t.origin_index <- Prefix.Map.add p asn t.origin_index;
    t.prefix_count <- t.prefix_count + 1
  end

let mem t asn = Hashtbl.mem t.nodes (Asn.to_int asn)
let node t asn = Option.map (fun e -> e.info) (entry t asn)
let node_exn t asn = (entry_exn t asn).info

(* ------------------------------------------------------------------ *)
(* The dense view: indices in insertion order, CSR rows in ASN order. *)

let freeze t =
  if not t.stale then t.last
  else begin
    let old = t.last in
    let size = Hashtbl.length t.nodes in
    let entries = Array.make size None in
    Hashtbl.iter (fun _ e -> entries.(e.index) <- Some e) t.nodes;
    let entries = Array.map Option.get entries in
    let asns = Array.map (fun e -> e.info.asn) entries in
    let by_asn = Array.init size Fun.id in
    Array.sort (fun i j -> Asn.compare asns.(i) asns.(j)) by_asn;
    (* Row [i] of the old view, as a range of its arrays. *)
    let old_lo i = if i < old.size then old.first.(i) else 0
    and old_hi i = if i < old.size then old.first.(i + 1) else 0 in
    let first = Array.make (size + 1) 0 in
    Array.iteri
      (fun i e ->
        first.(i + 1) <-
          first.(i) + (old_hi i - old_lo i) + Asn.Map.cardinal e.adj)
      entries;
    let nbr = Array.make first.(size) 0
    and rel = Array.make first.(size) Relationship.Peer in
    Array.iteri
      (fun i e ->
        (* Merge the old row and [adj], both in ASN order. *)
        let k = ref first.(i) and j = ref (old_lo i) in
        let emit v r =
          nbr.(!k) <- v;
          rel.(!k) <- r;
          incr k
        in
        let copy_old_below x =
          while !j < old_hi i && Asn.to_int asns.(old.nbr.(!j)) < x do
            emit old.nbr.(!j) old.rel.(!j);
            incr j
          done
        in
        Asn.Map.iter
          (fun b r ->
            copy_old_below (Asn.to_int b);
            emit (Hashtbl.find t.nodes (Asn.to_int b)).index r)
          e.adj;
        copy_old_below max_int;
        e.adj <- Asn.Map.empty)
      entries;
    let d =
      { size;
        asns;
        by_asn;
        sorted = Array.map (fun i -> asns.(i)) by_asn;
        first;
        nbr;
        rel;
        graph_id = t.id;
        mark = Array.make size 0;
        ring = Array.make size 0;
        epoch = 0
      }
    in
    t.last <- d;
    t.stale <- false;
    d
  end

let index d asn =
  let x = Asn.to_int asn in
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let y = Asn.to_int d.sorted.(mid) in
      if y = x then d.by_asn.(mid)
      else if y < x then search (mid + 1) hi
      else search lo mid
  in
  search 0 d.size

let next_epoch d =
  d.epoch <- d.epoch + 1;
  d.epoch

(* The row of [asn], filtered by [keep] on the relationship. *)
let row t asn keep f =
  let d = freeze t in
  let i = index d asn in
  if i < 0 then
    invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn));
  let acc = ref [] in
  for k = d.first.(i + 1) - 1 downto d.first.(i) do
    if keep d.rel.(k) then acc := f d.asns.(d.nbr.(k)) d.rel.(k) :: !acc
  done;
  !acc

let neighbors t asn = row t asn (fun _ -> true) (fun b r -> (b, r))

let relationship t a b = relationship_of t (entry_exn t a) b

let filter_rel t asn want =
  row t asn (Relationship.equal want) (fun b _ -> b)

let customers t asn = filter_rel t asn Relationship.Customer
let providers t asn = filter_rel t asn Relationship.Provider

let prefixes_of t asn = Prefix.Set.elements (entry_exn t asn).prefixes

let ases t =
  Hashtbl.fold (fun k _ acc -> Asn.of_int k :: acc) t.nodes []
  |> List.sort Asn.compare

let n_ases t = Hashtbl.length t.nodes
let n_edges t = t.edge_count
let n_prefixes t = t.prefix_count

let iter_prefixes f t =
  Prefix.Map.iter (fun p asn -> f asn p) t.origin_index
