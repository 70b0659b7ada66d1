open Peering_net
open Peering_bgp

(* [keys] memoises the Rib peer key of each upstream peer of [server],
   so route callbacks do not format it again per route. *)
type link = { server : Server.t; keys : (int, string) Hashtbl.t }

type t = {
  id : string;
  experiment : Experiment.t;
  rib : Rib.t;
  mutable links : link list;
}

let create ~id ~experiment () =
  { id; experiment; rib = Rib.create (); links = [] }

let id t = t.id
let experiment t = t.experiment

let rib_key link peer =
  let asn = Asn.to_int peer in
  match Hashtbl.find_opt link.keys asn with
  | Some key -> key
  | None ->
    let key =
      Printf.sprintf "%s/%s" (Server.name link.server) (Asn.to_string peer)
    in
    Hashtbl.add link.keys asn key;
    key

let find_link t name =
  List.find_opt (fun l -> Server.name l.server = name) t.links

let connect t server =
  if find_link t (Server.name server) <> None then
    invalid_arg "Client.connect: already connected to this server";
  let link = { server; keys = Hashtbl.create 16 } in
  t.links <- t.links @ [ link ];
  let callbacks =
    { Server.route_update =
        (fun ~peer route ->
          ignore (Rib.announce t.rib ~peer:(rib_key link peer) route));
      route_withdraw =
        (fun ~peer prefix ->
          ignore (Rib.withdraw t.rib ~peer:(rib_key link peer) prefix))
    }
  in
  Server.connect_client server ~experiment:t.experiment ~callbacks t.id

let disconnect t server =
  match find_link t (Server.name server) with
  | None -> ()
  | Some link ->
    Server.disconnect_client server t.id;
    List.iter
      (fun peer ->
        ignore (Rib.drop_peer t.rib ~peer:(rib_key link peer)))
      (Server.peer_asns link.server);
    t.links <- List.filter (fun l -> l != link) t.links

let selected_links t = function
  | None -> t.links
  | Some names ->
    List.filter (fun l -> List.mem (Server.name l.server) names) t.links

let announce t ?servers ?peers ?path_suffix prefix =
  List.map
    (fun link ->
      ( Server.name link.server,
        Server.announce link.server ~client:t.id ?peers ?path_suffix prefix ))
    (selected_links t servers)

let withdraw t ?servers prefix =
  List.iter
    (fun link -> Server.withdraw link.server ~client:t.id prefix)
    (selected_links t servers)

let rib t = t.rib
let candidates t prefix = Rib.candidates t.rib prefix
let best t prefix = Rib.best t.rib prefix
let route_count t = Rib.route_count t.rib
