open Peering_net
module Rng = Peering_sim.Rng
module Gen = Peering_topo.Gen
module Customer_cone = Peering_topo.Customer_cone
module As_graph = Peering_topo.As_graph

type calibration = {
  n_members : int;
  n_route_server : int;
  n_open : int;
  n_closed : int;
  n_case_by_case : int;
  n_unlisted : int;
}

let paper_calibration =
  { n_members = 669;
    n_route_server = 554;
    n_open = 48;
    n_closed = 12;
    n_case_by_case = 40;
    n_unlisted = 15
  }

let build ?(calibration = paper_calibration) ~rng (world : Gen.world) =
  let cal = calibration in
  if As_graph.n_ases world.graph < cal.n_members then
    invalid_arg "Amsix.build: world too small";
  let fabric =
    Fabric.create ~rng:(Rng.split rng) ()
  in
  (* Candidate selection with kind-dependent join probability. The top
     of the cone ranking gets an extra boost so "we peer with 13 of
     the top 50" holds. *)
  let top_ranked = Customer_cone.top world.graph 100 in
  let top20 =
    Asn.Set.of_list (List.filteri (fun i _ -> i < 20) top_ranked)
  in
  let top100 = Asn.Set.of_list top_ranked in
  (* The big CDNs (the Googles and Akamais of the world) peer at every
     major IXP; popularity in the web workload follows the content
     list's order, so the head of that list joins near-certainly. *)
  let content_rank = Hashtbl.create 64 in
  List.iteri
    (fun i a -> Hashtbl.replace content_rank (Asn.to_int a) i)
    world.content;
  let n_content = List.length world.content in
  let join_probability asn =
    let node = As_graph.node_exn world.graph asn in
    match node.kind with
    | As_graph.Content -> (
      match Hashtbl.find_opt content_rank (Asn.to_int asn) with
      | Some i when i < n_content / 5 -> 0.85
      | Some _ | None -> 0.4)
    | As_graph.Tier1 -> 0.0 (* tier-1s sell transit; they do not open-peer *)
    | As_graph.Large_transit ->
      (* the hypergiants famously peer with everyone *)
      if Asn.Set.mem asn top20 then 0.85
      else if Asn.Set.mem asn top100 then 0.25
      else 0.12
    | As_graph.Small_transit -> 0.04
    | As_graph.Stub | As_graph.Enterprise -> 0.003
  in
  (* Visit candidates in shuffled order so the membership cap does not
     bias against ASes generated late (content networks). *)
  let candidates = Array.of_list (As_graph.ases world.graph) in
  Rng.shuffle rng candidates;
  let selected = ref [] in
  let n_selected = ref 0 in
  Array.iter
    (fun asn ->
      if !n_selected < cal.n_members && Rng.bernoulli rng (join_probability asn)
      then begin
        selected := asn :: !selected;
        incr n_selected
      end)
    candidates;
  (* Top up from small transits and stubs if the draw fell short —
     in random order, so the fill does not favour the head of the
     lists (which hold the largest cones). *)
  let already = Asn.Set.of_list !selected in
  let fill_arr =
    Array.of_list
      (List.filter
         (fun a -> not (Asn.Set.mem a already))
         (world.small_transit @ world.stubs))
  in
  Rng.shuffle rng fill_arr;
  let fill = Array.to_list fill_arr in
  let rec top_up = function
    | [] -> ()
    | a :: rest ->
      if !n_selected < cal.n_members then begin
        selected := a :: !selected;
        incr n_selected;
        top_up rest
      end
  in
  top_up fill;
  let members = Array.of_list !selected in
  Rng.shuffle rng members;
  (* First [n_route_server] use the route server; the rest get the
     published-policy census. *)
  let policies =
    Array.concat
      [ Array.make cal.n_open Peering_policy.Open;
        Array.make cal.n_closed Peering_policy.Closed;
        Array.make cal.n_case_by_case Peering_policy.Case_by_case;
        Array.make cal.n_unlisted Peering_policy.Unlisted
      ]
  in
  Rng.shuffle rng policies;
  Array.iteri
    (fun i asn ->
      if i < cal.n_route_server then
        (* Policy of RS members is irrelevant to the census; most open. *)
        Fabric.add_member fabric ~uses_route_server:true
          ~policy:Peering_policy.Open asn
      else
        let p = policies.(i - cal.n_route_server) in
        Fabric.add_member fabric ~policy:p asn)
    members;
  fabric

let member_countries fabric (world : Gen.world) =
  List.fold_left
    (fun acc (m : Fabric.member) ->
      Country.Set.add (As_graph.node_exn world.graph m.asn).country acc)
    Country.Set.empty (Fabric.members fabric)
