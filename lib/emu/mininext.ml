open Peering_net
open Peering_bgp
open Peering_router
open Peering_dataplane
module Engine = Peering_sim.Engine
module Topology_zoo = Peering_topo.Topology_zoo

type pop = {
  name : string;
  index : int;
  loopback : Ipv4.t;
  router : Router.t;
  node : Forwarder.node_id;
  country : Country.t;
}

type t = {
  engine : Engine.t;
  fwd : Forwarder.t;
  emu_name : string;
  asn : Asn.t;
  emu_id : int;
  mutable pop_list : pop list;  (* reverse order of addition *)
  igp : Igp.t;
  mutable gateways : (string * Ipv4.t * Forwarder.node_id) list;
  mutable sessions : int;
  mutable session_list : (string * string * Session.t) list;
  mutable is_started : bool;
}

let emu_counter = ref 0

let create engine fwd ~name ~asn () =
  incr emu_counter;
  { engine;
    fwd;
    emu_name = name;
    asn;
    emu_id = !emu_counter;
    pop_list = [];
    igp = Igp.create ();
    gateways = [];
    sessions = 0;
    session_list = [];
    is_started = false
  }

let pops t = List.rev t.pop_list
let pop t name = List.find_opt (fun p -> p.name = name) t.pop_list

let pop_exn t name =
  match pop t name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Mininext: unknown PoP %s" name)

let pop_name p = p.name
let router p = p.router
let loopback p = p.loopback
let node_id p = p.node

let add_pop t ?(country = Country.nl) name =
  if t.is_started then invalid_arg "Mininext.add_pop: already started";
  if pop t name <> None then invalid_arg "Mininext.add_pop: duplicate PoP";
  let index = List.length t.pop_list in
  if index > 253 then invalid_arg "Mininext.add_pop: too many PoPs";
  let lb = Ipv4.of_octets 10 (100 + (t.emu_id mod 100)) index 1 in
  let r = Router.create t.engine ~asn:t.asn ~router_id:lb () in
  let node = Printf.sprintf "%s:%s" t.emu_name name in
  Forwarder.add_node t.fwd node;
  Forwarder.add_address t.fwd node lb;
  Igp.add_node t.igp name;
  let p = { name; index; loopback = lb; router = r; node; country } in
  t.pop_list <- p :: t.pop_list;
  p

let link t a b =
  let pa = pop_exn t a and pb = pop_exn t b in
  Igp.add_link t.igp a b;
  Forwarder.set_link_latency t.fwd pa.node pb.node 0.005

let of_topology engine fwd ~asn (zoo : Topology_zoo.t) =
  let t = create engine fwd ~name:zoo.Topology_zoo.name ~asn () in
  Array.iter
    (fun (p : Topology_zoo.pop) ->
      ignore (add_pop t ~country:p.Topology_zoo.country p.Topology_zoo.city))
    zoo.Topology_zoo.pops;
  List.iter
    (fun (i, j) ->
      link t zoo.Topology_zoo.pops.(i).Topology_zoo.city
        zoo.Topology_zoo.pops.(j).Topology_zoo.city)
    zoo.Topology_zoo.links;
  t

(* Next-hop-self: every iBGP export rewrites the next hop to the
   exporting PoP's loopback so other PoPs can resolve it via the IGP. *)
let next_hop_self_policy lb =
  Policy.of_entries
    [ { Policy.seq = 10;
        decision = Policy.Permit;
        conds = [];
        actions = [ Policy.Set_next_hop lb ]
      } ]

let start t =
  if not t.is_started then begin
    t.is_started <- true;
    let ps = pops t in
    let rec mesh = function
      | [] -> ()
      | p :: rest ->
        List.iter
          (fun q ->
            let session =
              Router.connect t.engine
                (p.router, p.loopback)
                (q.router, q.loopback)
            in
            Router.set_export_policy p.router q.loopback
              (next_hop_self_policy p.loopback);
            Router.set_export_policy q.router p.loopback
              (next_hop_self_policy q.loopback);
            t.sessions <- t.sessions + 1;
            t.session_list <- (p.name, q.name, session) :: t.session_list)
          rest;
        mesh rest
    in
    mesh ps
  end

let originate_at t name prefix =
  let p = pop_exn t name in
  Router.originate p.router prefix;
  Forwarder.set_route t.fwd p.node prefix Fib.Local

let external_gateway t ~pop:name ~peer_addr ~node =
  let _ = pop_exn t name in
  t.gateways <- (name, peer_addr, node) :: t.gateways

let find_pop_by_loopback t addr =
  List.find_opt (fun p -> Ipv4.equal p.loopback addr) t.pop_list

let sync_fibs t =
  let ps = pops t in
  List.iter
    (fun p ->
      (* Loopbacks via IGP. *)
      Forwarder.set_route t.fwd p.node (Prefix.make p.loopback 32) Fib.Local;
      List.iter
        (fun q ->
          if q.name <> p.name then
            match Igp.next_hop t.igp ~src:p.name ~dst:q.name with
            | Some hop ->
              Forwarder.set_route t.fwd p.node
                (Prefix.make q.loopback 32)
                (Fib.Via (pop_exn t hop).node)
            | None -> ())
        ps;
      (* BGP best routes. *)
      Rib.fold_best
        (fun prefix route () ->
          let nh = route.Route.attrs.Attrs.next_hop in
          if Ipv4.equal nh p.loopback then
            (* Locally originated (or self next hop): deliver here. *)
            Forwarder.set_route t.fwd p.node prefix Fib.Local
          else
            match find_pop_by_loopback t nh with
            | Some q -> (
              match Igp.next_hop t.igp ~src:p.name ~dst:q.name with
              | Some hop ->
                Forwarder.set_route t.fwd p.node prefix
                  (Fib.Via (pop_exn t hop).node)
              | None -> ())
            | None -> (
              (* External next hop: resolvable only at a PoP with a
                 registered gateway for it. *)
              match
                List.find_opt
                  (fun (pname, addr, _) ->
                    pname = p.name && Ipv4.equal addr nh)
                  t.gateways
              with
              | Some (_, _, gw_node) ->
                Forwarder.set_route t.fwd p.node prefix (Fib.Via gw_node)
              | None -> ()))
        (Router.rib p.router) ())
    ps

let n_pops t = List.length t.pop_list
let n_ibgp_sessions t = t.sessions
let ibgp_sessions t = List.rev t.session_list

let routes_at t name = Router.table_size (pop_exn t name).router

let memory_words t =
  List.fold_left
    (fun acc p -> acc + Memory.measured_words (Router.rib p.router))
    0 t.pop_list

(* MinineXt keeps per-container overhead low (shared kernel, no VM):
   model ~6 MiB of process baseline per Quagga container plus table
   costs. *)
let container_model_bytes t =
  List.fold_left
    (fun acc p ->
      acc
      + Memory.model_bytes
          ~peers:(List.length (Router.neighbors p.router))
          ~prefixes_per_peer:(Router.table_size p.router))
    0 t.pop_list
