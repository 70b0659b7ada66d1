open Peering_net
module Rng = Peering_sim.Rng

type response = Accepted | Declined | No_response | Replied_with_questions

type member = {
  asn : Asn.t;
  policy : Peering_policy.t;
  uses_route_server : bool;
}

type t = {
  name : string;
  country : Country.t;
  rng : Rng.t;
  mutable directory : member Asn.Map.t;
  mutable responses : response Asn.Map.t;
}

let create ~name ~country ~rng () =
  { name;
    country;
    rng;
    directory = Asn.Map.empty;
    responses = Asn.Map.empty
  }

let add_member t ?(uses_route_server = false) ~policy asn =
  if Asn.Map.mem asn t.directory then
    invalid_arg "Fabric.add_member: duplicate member";
  t.directory <- Asn.Map.add asn { asn; policy; uses_route_server } t.directory

let member t asn = Asn.Map.find_opt asn t.directory
let members t = List.map snd (Asn.Map.bindings t.directory)
let n_members t = Asn.Map.cardinal t.directory

let route_server_users t =
  Asn.Map.fold
    (fun asn m acc -> if m.uses_route_server then asn :: acc else acc)
    t.directory []
  |> List.rev

let non_route_server_members t =
  List.filter (fun m -> not m.uses_route_server) (members t)

let policy_census t =
  let nonrs = non_route_server_members t in
  List.map
    (fun p ->
      ( p,
        List.length
          (List.filter (fun m -> Peering_policy.equal m.policy p) nonrs) ))
    Peering_policy.all

let request_peering t ~target =
  match member t target with
  | None -> invalid_arg "Fabric.request_peering: not a member"
  | Some m -> (
    match Asn.Map.find_opt target t.responses with
    | Some r -> r
    | None ->
      let p_accept = Peering_policy.accept_probability m.policy in
      let r =
        if Rng.bernoulli t.rng p_accept then Accepted
        else if
          Peering_policy.equal m.policy Peering_policy.Closed
          || Rng.bernoulli t.rng 0.5
        then No_response
        else if Rng.bernoulli t.rng 0.2 then Replied_with_questions
        else Declined
      in
      t.responses <- Asn.Map.add target r t.responses;
      r)

let bilateral_peers t =
  Asn.Map.fold
    (fun asn r acc -> if r = Accepted then asn :: acc else acc)
    t.responses []
  |> List.rev
