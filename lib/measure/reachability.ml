open Peering_net
module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph
module Customer_cone = Peering_topo.Customer_cone

type t = { table : unit Prefix_trie.t; count : int }

(* Deterministic per-(seed, peer, prefix) coin flip in [0, 1). *)
let hash01 seed peer prefix =
  let h =
    (seed * 0x9E3779B1)
    lxor (Asn.to_int peer * 0x85EBCA77)
    lxor (Prefix.hash prefix * 0xC2B2AE3D)
  in
  let r = Peering_sim.Rng.create h in
  Peering_sim.Rng.float r 1.0

(* How much of its customer cone a peer propagates multilaterally:
   customers must opt in to route-server propagation, so big transit
   networks export a modest fraction (with an absolute floor — roughly
   the customers who asked), small regional transits most of theirs,
   and everyone always exports their own prefixes. *)
let export_fraction kind ~cone_size =
  match kind with
  | As_graph.Tier1 | As_graph.Large_transit ->
    Float.max 0.2 (Float.min 1.0 (800.0 /. float_of_int (max 1 cone_size)))
  | As_graph.Small_transit -> 0.7
  | As_graph.Stub | As_graph.Content | As_graph.Enterprise -> 1.0

(* The prefixes [peer] exports over settlement-free peering: its
   customer cone, thinned by the selective-export model when
   requested. Own prefixes always go out. *)
let exported_prefixes ?selective (world : Gen.world) peer =
  let cone = Customer_cone.cone_prefixes world.Gen.graph peer in
  match selective with
  | None -> cone
  | Some seed ->
    let own =
      Prefix.Set.of_list (As_graph.prefixes_of world.Gen.graph peer)
    in
    let fraction =
      export_fraction (As_graph.node_exn world.Gen.graph peer).As_graph.kind
        ~cone_size:(Prefix.Set.cardinal cone)
    in
    Prefix.Set.filter
      (fun p ->
        Prefix.Set.mem p own || hash01 seed peer p < fraction)
      cone

let peer_routes ?selective (world : Gen.world) ~peers =
  let table =
    List.fold_left
      (fun acc peer ->
        Prefix.Set.fold
          (fun p acc -> Prefix_trie.add p () acc)
          (exported_prefixes ?selective world peer)
          acc)
      Prefix_trie.empty peers
  in
  { table; count = Prefix_trie.cardinal table }

let n_prefixes t = t.count
let covers_addr t addr = Prefix_trie.longest_match addr t.table <> None

let fraction_of_internet t (world : Gen.world) =
  float_of_int t.count /. float_of_int (As_graph.n_prefixes world.Gen.graph)

let peers_in_top (world : Gen.world) ~peers n =
  let topn = Asn.Set.of_list (Customer_cone.top world.Gen.graph n) in
  List.length (List.filter (fun p -> Asn.Set.mem p topn) peers)

let peer_countries (world : Gen.world) ~peers =
  List.fold_left
    (fun acc p ->
      Country.Set.add (As_graph.node_exn world.Gen.graph p).As_graph.country acc)
    Country.Set.empty peers

let routes_per_peer ?selective (world : Gen.world) ~peers =
  List.map
    (fun p ->
      (p, Prefix.Set.cardinal (exported_prefixes ?selective world p)))
    peers
  |> List.sort (fun (a1, n1) (a2, n2) ->
         match Int.compare n2 n1 with 0 -> Asn.compare a1 a2 | c -> c)
