open Peering_net

type proposal = {
  proposal_id : string;
  username_of : string;
  description : string;
}

type provision_kit = {
  client_config : string;
  tunnel_endpoints : (string * Ipv4.t) list;
}

type t = {
  testbed : Testbed.t;
  accounts : (string, bool) Hashtbl.t;  (** username -> approved *)
  mutable queue : proposal list;
}

let create testbed = { testbed; accounts = Hashtbl.create 16; queue = [] }

let register t ~username ~email ~affiliation =
  if Hashtbl.mem t.accounts username then Error "username taken"
  else if String.trim username = "" then Error "empty username"
  else begin
    let approved =
      String.trim affiliation <> ""
      || Filename.check_suffix email ".edu"
    in
    Hashtbl.replace t.accounts username approved;
    if approved then Ok () else Error "account held for manual review"
  end

let approved t username = Hashtbl.find_opt t.accounts username

let submit t ~username ~id ~description =
  match approved t username with
  | None -> Error "no such account"
  | Some false -> Error "account not approved"
  | Some true ->
    if List.exists (fun p -> p.proposal_id = id) t.queue then
      Error "proposal id already queued"
    else begin
      t.queue <-
        t.queue @ [ { proposal_id = id; username_of = username; description } ];
      Ok ()
    end

let pending t = t.queue

let forward_queued t =
  let ctl = Testbed.controller t.testbed in
  let outcomes =
    List.map
      (fun p ->
        let outcome =
          match
            Controller.propose ctl ~id:p.proposal_id ~owner:p.username_of
              ~description:p.description ()
          with
          | Ok e ->
            Controller.activate ctl e;
            Ok e
          | Error msg -> Error ("controller: " ^ msg)
        in
        (p.proposal_id, outcome))
      t.queue
  in
  t.queue <- [];
  outcomes

(* A stable session endpoint per site: the server side of the client's
   BGP sessions. *)
let site_endpoint i = Ipv4.of_octets 100 64 i 1

let render_client_config (e : Experiment.t) sites =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "! PEERING client configuration -- experiment %s\n" e.Experiment.id;
  add "! generated by the provisioning portal; do not edit\n";
  add "router bgp 47065\n";
  (match e.Experiment.prefixes with
  | first :: _ ->
    add " bgp router-id %s\n" (Ipv4.to_string (Prefix.addr first))
  | [] -> ());
  List.iter
    (fun p -> add " network %s\n" (Prefix.to_string p))
    e.Experiment.prefixes;
  List.iteri
    (fun i (_site, addr) ->
      ignore i;
      add " neighbor %s remote-as 47065\n" (Ipv4.to_string addr);
      add " neighbor %s route-map EXPORT out\n" (Ipv4.to_string addr))
    sites;
  add "!\n";
  List.iteri
    (fun i p ->
      add "ip prefix-list EXPERIMENT seq %d permit %s le 32\n"
        ((i + 1) * 5)
        (Prefix.to_string p))
    e.Experiment.prefixes;
  add "!\n";
  add "route-map EXPORT permit 10\n";
  add " match ip address prefix-list EXPERIMENT\n";
  add "route-map EXPORT deny 20\n";
  Buffer.contents buf

let provision t ~experiment_id =
  let ctl = Testbed.controller t.testbed in
  match Controller.find_experiment ctl experiment_id with
  | None -> Error "no such experiment"
  | Some e when not (Experiment.is_active e) -> Error "experiment not active"
  | Some e ->
    let sites =
      List.mapi
        (fun i site -> (Testbed.site_name site, site_endpoint i))
        (Testbed.sites t.testbed)
    in
    let client_config = render_client_config e sites in
    (* The kit must be valid: round-trip through our own parser. *)
    (match Peering_router.Config.parse client_config with
    | Error e ->
      Error
        ("internal error: generated config invalid: "
        ^ Lines.error_to_string e)
    | Ok parsed -> (
      match Peering_router.Config.compile_route_map parsed "EXPORT" with
      | Error msg -> Error ("internal error: generated route-map: " ^ msg)
      | Ok _ ->
        Ok
          { client_config;
            tunnel_endpoints =
              List.map (fun (name, addr) -> (name, Ipv4.add addr 1)) sites
          }))
