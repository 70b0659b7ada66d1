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
  name : string;
  country : Country.t;
  kind : kind;
}

type entry = {
  info : node;
  mutable adj : Relationship.t Asn.Map.t;
  mutable prefixes : Prefix.Set.t;
}

type t = {
  nodes : (int, entry) Hashtbl.t;
  mutable origin_index : Asn.t Prefix.Map.t;
  mutable edge_count : int;
  mutable prefix_count : int;
}

let create () =
  { nodes = Hashtbl.create 1024;
    origin_index = Prefix.Map.empty;
    edge_count = 0;
    prefix_count = 0
  }

let entry t asn = Hashtbl.find_opt t.nodes (Asn.to_int asn)

let entry_exn t asn =
  match entry t asn with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn))

let add_as t ?name ?(country = Country.nl) ?(kind = Stub) asn =
  if Hashtbl.mem t.nodes (Asn.to_int asn) then
    invalid_arg (Printf.sprintf "As_graph.add_as: duplicate %s" (Asn.to_string asn));
  let name = Option.value name ~default:(Asn.to_string asn) in
  Hashtbl.replace t.nodes (Asn.to_int asn)
    { info = { asn; name; country; kind };
      adj = Asn.Map.empty;
      prefixes = Prefix.Set.empty
    }

let add_edge t a rel b =
  if Asn.equal a b then invalid_arg "As_graph.add_edge: self loop";
  let ea = entry_exn t a and eb = entry_exn t b in
  if Asn.Map.mem b ea.adj then
    invalid_arg "As_graph.add_edge: duplicate edge";
  ea.adj <- Asn.Map.add b rel ea.adj;
  eb.adj <- Asn.Map.add a (Relationship.invert rel) eb.adj;
  t.edge_count <- t.edge_count + 1

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

let neighbors t asn = Asn.Map.bindings (entry_exn t asn).adj

let relationship t a b = Asn.Map.find_opt b (entry_exn t a).adj

let filter_rel t asn want =
  Asn.Map.fold
    (fun n rel acc -> if Relationship.equal rel want then n :: acc else acc)
    (entry_exn t asn).adj []
  |> List.rev

let customers t asn = filter_rel t asn Relationship.Customer
let providers t asn = filter_rel t asn Relationship.Provider
let peers_of t asn = filter_rel t asn Relationship.Peer

let prefixes_of t asn = Prefix.Set.elements (entry_exn t asn).prefixes
let origin_of t p = Prefix.Map.find_opt p t.origin_index

let ases t =
  Hashtbl.fold (fun k _ acc -> Asn.of_int k :: acc) t.nodes []
  |> List.sort Asn.compare

let n_ases t = Hashtbl.length t.nodes
let n_edges t = t.edge_count
let n_prefixes t = t.prefix_count

let iter_prefixes f t =
  Prefix.Map.iter (fun p asn -> f asn p) t.origin_index
