open Peering_net
open Peering_bgp
module Engine = Peering_sim.Engine

type neighbor = {
  remote_addr : Ipv4.t;
  local_addr : Ipv4.t;
  ebgp : bool;
  source : Route.source option;  (** shared by every route it sends *)
  key : string;  (** its Adj-RIB-In in the [Rib] *)
  mutable import : Policy.t;
  mutable export : Policy.t;
  mutable send : Message.t -> unit;
  mutable up : bool;
  mutable adj_out : Route.t Prefix.Map.t;
  mutable mrai_until : float;  (** no advertisements before this time *)
  mutable pending : Rib.change Prefix.Map.t;  (** held by the MRAI timer *)
  mutable gr_time : int option;
      (** peer's negotiated RFC 4724 restart time, captured on establish *)
  mutable stale_generation : int;
      (** invalidates scheduled stale sweeps across up/down transitions *)
}

type t = {
  engine : Engine.t;
  asn : Asn.t;
  router_id : Ipv4.t;
  hold_time : int;
  mrai : float;
  graceful_restart : int option;
  rib : Rib.t;
  mutable nbrs : neighbor list;
  mutable networks : (Prefix.t * Attrs.t) list;
  mutable rx_updates : int;
  mutable tx_updates : int;
}

let local_peer_key = "<local>"

(* After a helper's session re-establishes, the restarting peer resends
   its table; routes it no longer has must then be swept. With MRAI
   disabled the resync completes within a few wire latencies, so a
   one-second deferral is a comfortable End-of-RIB surrogate. *)
let resync_deferral = 1.0

let create engine ~asn ~router_id ?(hold_time = 90) ?(mrai = 0.0)
    ?graceful_restart () =
  { engine;
    asn;
    router_id;
    hold_time;
    mrai;
    graceful_restart;
    rib = Rib.create ();
    nbrs = [];
    networks = [];
    rx_updates = 0;
    tx_updates = 0
  }

let asn t = t.asn
let rib t = t.rib

let neighbors t = t.nbrs

let find_neighbor t addr =
  List.find_opt (fun n -> Ipv4.equal n.remote_addr addr) t.nbrs

let find_neighbor_exn t addr =
  match find_neighbor t addr with
  | Some n -> n
  | None -> invalid_arg "Router: unknown neighbor"

let set_import_policy t addr p = (find_neighbor_exn t addr).import <- p
let set_export_policy t addr p = (find_neighbor_exn t addr).export <- p

(* ------------------------------------------------------------------ *)
(* Export path *)

(* Transform a Loc-RIB route for export to [nbr]; [None] = filtered. *)
let export_route t (nbr : neighbor) (route : Route.t) =
  (* Split horizon: never send a route back to the peer it came from. *)
  let from_this_peer =
    match route.Route.source with
    | Some s -> Ipv4.equal s.Route.peer_addr nbr.remote_addr
    | None -> false
  in
  if from_this_peer then None
  else if
    (* iBGP rule: routes learned over iBGP are not re-exported to iBGP
       peers (full-mesh assumption). *)
    (not (Route.is_ebgp route))
    && route.Route.source <> None
    && not nbr.ebgp
  then None
  else if nbr.ebgp && Attrs.has_community Community.no_export route.Route.attrs
  then None
  else if Attrs.has_community Community.no_advertise route.Route.attrs then None
  else
    match Policy.apply nbr.export route with
    | None -> None
    | Some r ->
      let attrs = r.Route.attrs in
      let attrs =
        if nbr.ebgp then
          attrs
          |> Attrs.prepend_asn t.asn
          |> Attrs.with_next_hop nbr.local_addr
          |> Attrs.with_local_pref None
        else attrs
      in
      Some { r with Route.attrs }

let send_update t (nbr : neighbor) msg =
  t.tx_updates <- t.tx_updates + 1;
  nbr.send msg

let emit_change t (nbr : neighbor) (change : Rib.change) =
  let prefix = change.Rib.prefix in
  match Option.map (export_route t nbr) change.Rib.current with
  | Some (Some out) ->
    nbr.adj_out <- Prefix.Map.add prefix out nbr.adj_out;
    send_update t nbr (Message.update_of_announce prefix out.Route.attrs)
  | Some None | None ->
    (* Current best is unexportable or gone: withdraw if advertised. *)
    if Prefix.Map.mem prefix nbr.adj_out then begin
      nbr.adj_out <- Prefix.Map.remove prefix nbr.adj_out;
      send_update t nbr (Message.update_of_withdraw prefix)
    end

let rec flush_pending t (nbr : neighbor) () =
  if nbr.up && not (Prefix.Map.is_empty nbr.pending) then begin
    let batch = nbr.pending in
    nbr.pending <- Prefix.Map.empty;
    nbr.mrai_until <- Engine.now t.engine +. t.mrai;
    Prefix.Map.iter (fun _ change -> emit_change t nbr change) batch;
    Engine.schedule t.engine ~delay:t.mrai (flush_pending t nbr)
  end

let advertise_change t (nbr : neighbor) (change : Rib.change) =
  if nbr.up then
    if t.mrai <= 0.0 then emit_change t nbr change
    else begin
      let now = Engine.now t.engine in
      if now >= nbr.mrai_until && Prefix.Map.is_empty nbr.pending then begin
        nbr.mrai_until <- now +. t.mrai;
        emit_change t nbr change;
        Engine.schedule t.engine ~delay:t.mrai (flush_pending t nbr)
      end
      else
        (* Inside the window: hold the latest change per prefix; the
           timer scheduled at window start flushes it. *)
        nbr.pending <- Prefix.Map.add change.Rib.prefix change nbr.pending
    end

let propagate t changes =
  List.iter
    (fun change -> List.iter (fun nbr -> advertise_change t nbr change) t.nbrs)
    changes

(* Initial table dump: pack prefixes sharing attributes into combined
   UPDATEs instead of one message per prefix. *)
let full_table_to t (nbr : neighbor) =
  if nbr.up then begin
    let exports =
      Rib.fold_best
        (fun prefix route acc ->
          match export_route t nbr route with
          | Some out -> (prefix, out) :: acc
          | None -> acc)
        t.rib []
      |> List.rev
    in
    List.iter
      (fun (prefix, out) ->
        nbr.adj_out <- Prefix.Map.add prefix out nbr.adj_out)
      exports;
    let announcements =
      List.map (fun (p, (out : Route.t)) -> (p, out.Route.attrs)) exports
    in
    List.iter
      (fun u -> send_update t nbr (Message.Update u))
      (Update_group.group announcements)
  end

(* ------------------------------------------------------------------ *)
(* Import path *)

let import_route t (nbr : neighbor) prefix path_id (attrs : Attrs.t) =
  (* eBGP loop detection. *)
  if nbr.ebgp && As_path.mem t.asn attrs.Attrs.as_path then None
  else
    let attrs =
      if nbr.ebgp then Attrs.with_local_pref None attrs else attrs
    in
    let route =
      Route.make ?source:nbr.source ~path_id ~learned_at:(Engine.now t.engine)
        prefix attrs
    in
    Policy.apply nbr.import route

let on_update t (nbr : neighbor) (u : Message.update) =
  t.rx_updates <- t.rx_updates + 1;
  let changes = ref [] in
  List.iter
    (fun (path_id, prefix) ->
      match Rib.withdraw t.rib ~peer:nbr.key ~path_id prefix with
      | Some c -> changes := c :: !changes
      | None -> ())
    u.Message.withdrawn;
  (match u.Message.attrs with
  | Some attrs ->
    List.iter
      (fun (path_id, prefix) ->
        match import_route t nbr prefix path_id attrs with
        | Some route -> (
          match Rib.announce t.rib ~peer:nbr.key route with
          | Some c -> changes := c :: !changes
          | None -> ())
        | None -> (
          (* Filtered on import: ensure no stale route remains. *)
          match Rib.withdraw t.rib ~peer:nbr.key ~path_id prefix with
          | Some c -> changes := c :: !changes
          | None -> ()))
      u.Message.nlri
  | None -> ());
  propagate t (List.rev !changes)

let sweep_peer t (nbr : neighbor) generation () =
  if generation = nbr.stale_generation then begin
    let changes = Rib.sweep_stale t.rib ~peer:nbr.key in
    propagate t changes
  end

let on_established t (nbr : neighbor) peer_gr_time (_ : Wire.session_opts) =
  nbr.up <- true;
  nbr.stale_generation <- nbr.stale_generation + 1;
  nbr.gr_time <- peer_gr_time ();
  (* If we were helping across a restart, re-announcements now refresh
     the stale marks; whatever is still stale after the deferral was
     lost in the restart and must go. *)
  if Rib.stale_count t.rib ~peer:nbr.key > 0 then
    Engine.schedule t.engine ~delay:resync_deferral
      (sweep_peer t nbr nbr.stale_generation);
  full_table_to t nbr

let on_close t (nbr : neighbor) (_reason : string) =
  nbr.up <- false;
  nbr.adj_out <- Prefix.Map.empty;
  nbr.pending <- Prefix.Map.empty;
  nbr.stale_generation <- nbr.stale_generation + 1;
  match nbr.gr_time with
  | Some rt when rt > 0 ->
    (* RFC 4724 helper: keep the peer's routes installed and forwarding
       for its advertised restart time; only withdraw if it stays down. *)
    ignore (Rib.mark_stale t.rib ~peer:nbr.key : int);
    Engine.schedule t.engine ~delay:(float_of_int rt)
      (sweep_peer t nbr nbr.stale_generation)
  | Some _ | None ->
    let changes = Rib.drop_peer t.rib ~peer:nbr.key in
    propagate t changes

(* ------------------------------------------------------------------ *)
(* Origination *)

let originate t prefix =
  let attrs = Attrs.make ~origin:Attrs.IGP ~next_hop:t.router_id () in
  t.networks <- (prefix, attrs) :: t.networks;
  let route = Route.local prefix attrs in
  match Rib.announce t.rib ~peer:local_peer_key route with
  | Some c -> propagate t [ c ]
  | None -> ()

let withdraw_network t prefix =
  t.networks <- List.filter (fun (p, _) -> not (Prefix.equal p prefix)) t.networks;
  match Rib.withdraw t.rib ~peer:local_peer_key prefix with
  | Some c -> propagate t [ c ]
  | None -> ()

let networks t = List.map fst t.networks |> List.sort Prefix.compare

(* ------------------------------------------------------------------ *)
(* Wiring *)

let add_neighbor t ~remote_asn ~remote_addr ~local_addr =
  if find_neighbor t remote_addr <> None then
    invalid_arg "Router.connect: duplicate neighbor";
  let ebgp = not (Asn.equal remote_asn t.asn) in
  let nbr =
    { remote_addr;
      local_addr;
      ebgp;
      source =
        Some
          { Route.peer_asn = remote_asn;
            peer_addr = remote_addr;
            peer_router_id = remote_addr;
            ebgp
          };
      key = Ipv4.to_string remote_addr;
      import = Policy.permit_all;
      export = Policy.permit_all;
      send = (fun _ -> ());
      up = false;
      adj_out = Prefix.Map.empty;
      mrai_until = 0.0;
      pending = Prefix.Map.empty;
      gr_time = None;
      stale_generation = 0
    }
  in
  t.nbrs <- t.nbrs @ [ nbr ];
  nbr

let connect engine ?(auto_restart = false) (r1, addr1) (r2, addr2) =
  let n1 =
    add_neighbor r1 ~remote_asn:r2.asn ~remote_addr:addr2 ~local_addr:addr1
  in
  let n2 =
    add_neighbor r2 ~remote_asn:r1.asn ~remote_addr:addr1 ~local_addr:addr2
  in
  let cfg r =
    let base = Fsm.default_config ~local_asn:r.asn ~router_id:r.router_id in
    let capabilities =
      match r.graceful_restart with
      | Some rt -> base.Fsm.capabilities @ [ Capability.Graceful_restart rt ]
      | None -> base.Fsm.capabilities
    in
    { base with Fsm.hold_time = r.hold_time; auto_restart; capabilities }
  in
  (* The peer's negotiated restart time lives in the FSM, which does not
     exist until the session is built; callbacks only fire once the
     engine runs, so reading through this ref is safe. *)
  let session_ref = ref None in
  let gr_of side () =
    match !session_ref with
    | None -> None
    | Some s -> Fsm.graceful_restart_time (side s)
  in
  let session =
    Session.create engine
      ~a:(cfg r1)
      ~b:(cfg r2)
      ~on_update_a:(fun u -> on_update r1 n1 u)
      ~on_update_b:(fun u -> on_update r2 n2 u)
      ~on_established_a:(fun opts ->
        on_established r1 n1 (gr_of Session.a) opts)
      ~on_established_b:(fun opts ->
        on_established r2 n2 (gr_of Session.b) opts)
      ~on_close_a:(fun reason -> on_close r1 n1 reason)
      ~on_close_b:(fun reason -> on_close r2 n2 reason)
      ()
  in
  session_ref := Some session;
  n1.send <- (fun m -> Session.send_from_a session m);
  n2.send <- (fun m -> Session.send_from_b session m);
  Session.start session;
  session

(* ------------------------------------------------------------------ *)
(* Queries *)

let best_route t prefix = Rib.best t.rib prefix
let table_size t = Rib.prefix_count t.rib

let advertised_to t addr =
  let nbr = find_neighbor_exn t addr in
  List.map fst (Prefix.Map.bindings nbr.adj_out)

let updates_received t = t.rx_updates
let updates_sent t = t.tx_updates
