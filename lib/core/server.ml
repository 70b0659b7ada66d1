open Peering_net
open Peering_bgp
module Engine = Peering_sim.Engine
module Metrics = Peering_obs.Metrics
module Span = Peering_obs.Span

(* Every mux counter is split by site (ROADMAP: per-site labeled
   metrics, so the A5 remote-peering economics read straight off a
   snapshot). Each server resolves its instruments once at creation
   through the family's label-set cache; increments stay O(1) and
   allocation-free. *)
let fam_client_connects = Metrics.Family.counter "core.server.client_connects"

let fam_routes_learned = Metrics.Family.counter "core.server.routes_learned"

let fam_updates_to_clients =
  Metrics.Family.counter "core.server.updates_to_clients"

let fam_announces_exported =
  Metrics.Family.counter "core.server.announces_exported"

let fam_withdraws_exported =
  Metrics.Family.counter "core.server.withdraws_exported"

let fam_crashes = Metrics.Family.counter "core.server.crashes"

let fam_restarts = Metrics.Family.counter "core.server.restarts"

let fam_failovers = Metrics.Family.counter "core.server.client_failovers"

let fam_downtime = Metrics.Family.histogram "core.server.downtime_s"

(* Same family name (and ordinal convention) as the FSM's per-peer
   gauge, here keyed (peer, site): the mux's upstream sessions don't
   run a full FSM, so the exporter publishes 5 (Established) on Peer
   Up and 0 (Idle) on Peer Down — the registry-vs-BMP-feed
   cross-check in the telemetry harness reads exactly this row. *)
let fam_session_state = Metrics.Family.gauge "bgp.session.state"

let fam_bmp_msgs = Metrics.Family.counter "core.server.bmp_msgs"

type site_metrics = {
  m_client_connects : Metrics.Counter.t;
  m_routes_learned : Metrics.Counter.t;
  m_updates_to_clients : Metrics.Counter.t;
  m_announces_exported : Metrics.Counter.t;
  m_withdraws_exported : Metrics.Counter.t;
  m_crashes : Metrics.Counter.t;
  m_restarts : Metrics.Counter.t;
  m_failovers : Metrics.Counter.t;
  m_downtime : Metrics.Histogram.t;
  m_bmp_msgs : Metrics.Counter.t;
}

let site_metrics site =
  let labels = [ ("site", site) ] in
  { m_client_connects = Metrics.Family.get fam_client_connects labels;
    m_routes_learned = Metrics.Family.get fam_routes_learned labels;
    m_updates_to_clients = Metrics.Family.get fam_updates_to_clients labels;
    m_announces_exported = Metrics.Family.get fam_announces_exported labels;
    m_withdraws_exported = Metrics.Family.get fam_withdraws_exported labels;
    m_crashes = Metrics.Family.get fam_crashes labels;
    m_restarts = Metrics.Family.get fam_restarts labels;
    m_failovers = Metrics.Family.get fam_failovers labels;
    m_downtime = Metrics.Family.get fam_downtime labels;
    m_bmp_msgs = Metrics.Family.get fam_bmp_msgs labels
  }

type mux_mode = Per_peer_sessions | Add_path_mux

(* One record per upstream peer: its session address and its
   Adj-RIB-In, with the table's live route count for Stats Reports. *)
type peer = {
  peer_asn : Asn.t;
  (* built at the peer's first learned route and shared by all of them *)
  mutable source : Route.source option;
  mutable table : Route.t Prefix.Map.t;
  mutable n_routes : int;
}

type export_event =
  | Export_announce of {
      client : string;
      prefix : Prefix.t;
      path_suffix : Asn.t list;
      peers : Asn.Set.t;
    }
  | Export_withdraw of { client : string; prefix : Prefix.t }

type client_callbacks = {
  route_update : peer:Asn.t -> Route.t -> unit;
  route_withdraw : peer:Asn.t -> Prefix.t -> unit;
}

type client_conn = {
  id : string;
  experiment : Experiment.t;
  callbacks : client_callbacks option;
  (* prefix -> (target peers, sanitized path suffix): enough state to
     re-issue the export after a mux restart *)
  mutable announced : (Asn.Set.t * Asn.t list) Prefix.Map.t;
}

type t = {
  engine : Engine.t;
  server_name : string;
  m : site_metrics;
  asn : Asn.t;
  safety : Safety.t;
  mux : mux_mode;
  export : export_event -> unit;
  (* every peer by ASN, and newest first ([iter_peers] walks them in
     the order they were added) *)
  by_asn : (int, peer) Hashtbl.t;
  mutable peers_rev : peer list;
  (* the peers' ASNs: a full export's target set, shared by every such
     export *)
  mutable peer_set : Asn.Set.t;
  mutable conns : client_conn list;
  mutable up : bool;
  mutable crashed_at : float option;
  (* testbed injection hook: observe crash/restart transitions so the
     simulated Internet can route around a dead mux *)
  mutable status_hook : (bool -> unit) option;
  (* live telemetry: encoded BMP messages are pushed here (the
     monitoring station's feed).  Byte-level so lib/measure can consume
     without a dependency on this module. *)
  mutable bmp_sink : (bytes -> unit) option;
  (* Adj-RIB-In changes since creation; every 100th also emits a
     Stats Report for the changing peer, so stations track table sizes
     live without a per-change report. *)
  mutable bmp_changes : int;
}

let create engine ~name ~asn ~safety ?(mux = Per_peer_sessions) ~export () =
  { engine;
    server_name = name;
    m = site_metrics name;
    asn;
    safety;
    mux;
    export;
    by_asn = Hashtbl.create 64;
    peers_rev = [];
    peer_set = Asn.Set.empty;
    conns = [];
    up = true;
    crashed_at = None;
    status_hook = None;
    bmp_sink = None;
    bmp_changes = 0
  }

let set_status_hook t hook = t.status_hook <- hook

let name t = t.server_name

(* ------------------------------------------------------------------ *)
(* BMP export (RFC 7854).  Every session and Adj-RIB-In change is
   mirrored onto the byte sink as an encoded BMP message; the
   monitoring station reconstructs the mux's per-peer tables from
   nothing but this stream. *)

let bmp_emit t m =
  match t.bmp_sink with
  | None -> ()
  | Some f ->
    Metrics.Counter.inc t.m.m_bmp_msgs;
    f (Bmp.encode m)

(* The mux side of every monitored session, a stable synthetic
   address (100.64.0.1, RFC 6598 space). *)
let bmp_local_addr = Ipv4.of_octets 100 64 0 1

let bmp_open ~asn ~router_id =
  { Message.version = 4;
    asn;
    hold_time = 90;
    router_id;
    capabilities = [ Capability.Four_octet_asn (Asn.to_int asn) ]
  }

let default_peer_addr asn =
  (* A stable synthetic session address per peer ASN. *)
  let a = Asn.to_int asn in
  Ipv4.of_octets 172 (16 + (a lsr 16 land 0x0F)) (a lsr 8 land 0xFF)
    (a land 0xFF)

let peer_addr p = default_peer_addr p.peer_asn

let bmp_peer_hdr ?time t p =
  let addr = peer_addr p in
  Bmp.make_peer_header ~addr ~asn:p.peer_asn ~bgp_id:addr
    ~time:(Option.value time ~default:(Engine.now t.engine))
    ()

let session_gauge t p =
  Metrics.Family.get fam_session_state
    [ ("peer", Asn.to_string p.peer_asn); ("site", t.server_name) ]

let bmp_peer_up t p =
  Metrics.Gauge.set (session_gauge t p) 5.0;
  bmp_emit t
    (Bmp.Peer_up
       { peer = bmp_peer_hdr t p;
         local_addr = bmp_local_addr;
         local_port = 179;
         remote_port = 179;
         sent_open = bmp_open ~asn:t.asn ~router_id:bmp_local_addr;
         recv_open = bmp_open ~asn:p.peer_asn ~router_id:(peer_addr p)
       })

let bmp_peer_down t p ~reason =
  Metrics.Gauge.set (session_gauge t p) 0.0;
  bmp_emit t (Bmp.Peer_down { peer = bmp_peer_hdr t p; reason })

(* Route Monitoring frames carry the route's own [learned_at] in the
   per-peer header, so the reconstructed table's timestamps equal the
   live table's (at the wire's µs precision). *)
let bmp_route t p (route : Route.t) =
  let update =
    { Message.withdrawn = [];
      attrs = Some route.Route.attrs;
      nlri = [ (route.Route.path_id, route.Route.prefix) ]
    }
  in
  bmp_emit t
    (Bmp.Route_monitoring
       { peer = bmp_peer_hdr ~time:route.Route.learned_at t p; update })

let bmp_withdraw t p prefix =
  let update =
    { Message.withdrawn = [ (0, prefix) ]; attrs = None; nlri = [] }
  in
  bmp_emit t (Bmp.Route_monitoring { peer = bmp_peer_hdr t p; update })

let add_peer t peer_asn =
  if Hashtbl.mem t.by_asn (Asn.to_int peer_asn) then
    invalid_arg "Server.add_peer: duplicate peer";
  let p = { peer_asn; source = None; table = Prefix.Map.empty; n_routes = 0 } in
  Hashtbl.replace t.by_asn (Asn.to_int peer_asn) p;
  t.peers_rev <- p :: t.peers_rev;
  t.peer_set <- Asn.Set.add peer_asn t.peer_set;
  if t.up then bmp_peer_up t p

let iter_peers t f = List.iter f (List.rev t.peers_rev)
let peer_asns t = List.rev_map (fun p -> p.peer_asn) t.peers_rev
let n_peers t = Hashtbl.length t.by_asn

let find_conn t id = List.find_opt (fun c -> c.id = id) t.conns

let find_conn_exn t id =
  match find_conn t id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Server %s: unknown client %s" t.server_name id)

let bmp_stats_peer t p =
  bmp_emit t
    (Bmp.Stats_report
       { peer = bmp_peer_hdr t p;
         stats =
           [ { Bmp.stat_type = Bmp.stat_routes_adj_rib_in;
               stat_value = p.n_routes
             } ]
       })

let emit_bmp_stats t = if t.up then iter_peers t (bmp_stats_peer t)

(* State-sync on attach, mirroring what a BMP speaker sends a station
   that connects mid-flight (RFC 7854 §3.3): Initiation, a Peer Up per
   established session, the current Adj-RIB-In as Route Monitoring,
   then a Stats Report per peer.  This is what makes attachment
   order-independent: a monitor attached after routes were learned
   reconstructs the same table as one attached before. *)
let bmp_sync t =
  bmp_emit t
    (Bmp.Initiation { info = [ (1, "peering mux"); (2, t.server_name) ] });
  iter_peers t (fun p ->
      bmp_peer_up t p;
      Prefix.Map.iter (fun _ route -> bmp_route t p route) p.table;
      bmp_stats_peer t p)

let set_bmp_sink t sink =
  t.bmp_sink <- sink;
  if Option.is_some sink && t.up then bmp_sync t

let replay_to conn t =
  match conn.callbacks with
  | None -> ()
  | Some cb ->
    iter_peers t (fun p ->
        Prefix.Map.iter
          (fun _ route -> cb.route_update ~peer:p.peer_asn route)
          p.table)

let connect_client t ~experiment ?callbacks id =
  if find_conn t id <> None then
    invalid_arg "Server.connect_client: duplicate client id";
  let conn = { id; experiment; callbacks; announced = Prefix.Map.empty } in
  t.conns <- t.conns @ [ conn ];
  Metrics.Counter.inc t.m.m_client_connects;
  replay_to conn t

let n_clients t = List.length t.conns

let engine_clock t () = Engine.now t.engine

(* The export callback runs under its own child span so downstream
   work it triggers (BGP transmits, route-server fan-out, scheduled
   wire deliveries) hangs off the announcement that caused it. *)
let export_spanned ?(attrs = []) t ev =
  Span.with_span ~time:(engine_clock t)
    ~attrs:(("site", t.server_name) :: attrs)
    "core.server.export"
    (fun () -> t.export ev)

let announce t ~client ?peers ?(path_suffix = []) prefix =
  let run () =
    let conn = find_conn_exn t client in
    if not t.up then Error Safety.Mux_down
    else
      let now = Engine.now t.engine in
      match
        Safety.check_announce t.safety ~now ~client ~experiment:conn.experiment
          ~prefix ~path_suffix
      with
      | Error e -> Error e
      | Ok () ->
        let sanitized =
          Safety.sanitize_suffix t.safety conn.experiment path_suffix
        in
        let targets =
          match peers with
          | None -> t.peer_set
          | Some l -> Asn.Set.inter t.peer_set (Asn.Set.of_list l)
        in
        conn.announced <-
          Prefix.Map.add prefix (targets, sanitized) conn.announced;
        Metrics.Counter.inc t.m.m_announces_exported;
        export_spanned t
          (Export_announce
             { client; prefix; path_suffix = sanitized; peers = targets });
        Ok ()
  in
  if not (Span.enabled ()) then run ()
  else begin
    (* Root of the causal tree when the announcement enters here (the
       client API is one of the system's entry points); a child if the
       caller already opened one. *)
    let sp =
      Span.start ~time:(Engine.now t.engine) "core.server.announce"
        ~attrs:
          [ ("site", t.server_name); ("client", client);
            ("prefix", Prefix.to_string prefix) ]
    in
    let result = Span.with_current (Some (Span.context sp)) run in
    Span.finish sp ~time:(Engine.now t.engine)
      ~attrs:
        [ ( "outcome",
            match result with
            | Ok () -> "exported"
            | Error r -> Safety.reason_to_string r )
        ];
    result
  end

let withdraw t ~client prefix =
  let run () =
    let conn = find_conn_exn t client in
    (* Applies whether or not the mux is up: the announcement must not
       come back when a crashed mux restarts and re-exports. *)
    if Prefix.Map.mem prefix conn.announced then begin
      conn.announced <- Prefix.Map.remove prefix conn.announced;
      Safety.note_withdraw t.safety ~now:(Engine.now t.engine) ~client ~prefix;
      Metrics.Counter.inc t.m.m_withdraws_exported;
      export_spanned t (Export_withdraw { client; prefix })
    end
  in
  Span.with_span ~time:(engine_clock t)
    ~attrs:
      [ ("site", t.server_name); ("client", client);
        ("prefix", Prefix.to_string prefix) ]
    "core.server.withdraw" run

let disconnect_client t id =
  match find_conn t id with
  | None -> ()
  | Some conn ->
    List.iter (fun (p, _) -> withdraw t ~client:id p)
      (Prefix.Map.bindings conn.announced);
    t.conns <- List.filter (fun c -> c.id <> id) t.conns

(* Every 100th Adj-RIB-In change also reports the changing peer's
   table size. *)
let note_bmp_change t p =
  t.bmp_changes <- t.bmp_changes + 1;
  if t.bmp_changes mod 100 = 0 then bmp_stats_peer t p

let peer_source p =
  match p.source with
  | Some _ as source -> source
  | None ->
    let addr = peer_addr p in
    let source =
      Some
        { Route.peer_asn = p.peer_asn; peer_addr = addr; peer_router_id = addr;
          ebgp = true }
    in
    p.source <- source;
    source

let learn_route t ~peer ~path prefix =
  match Hashtbl.find_opt t.by_asn (Asn.to_int peer) with
  | None -> invalid_arg "Server.learn_route: unknown peer"
  | Some _ when not t.up -> ()  (* crashed mux hears nothing *)
  | Some p ->
    let attrs =
      Attrs.make ~as_path:(As_path.of_asns path) ~next_hop:(peer_addr p) ()
    in
    let route =
      Route.make ?source:(peer_source p) ~learned_at:(Engine.now t.engine) prefix attrs
    in
    if not (Prefix.Map.mem prefix p.table) then p.n_routes <- p.n_routes + 1;
    p.table <- Prefix.Map.add prefix route p.table;
    Metrics.Counter.inc t.m.m_routes_learned;
    bmp_route t p route;
    note_bmp_change t p;
    List.iter
      (fun conn ->
        match conn.callbacks with
        | Some cb ->
          Metrics.Counter.inc t.m.m_updates_to_clients;
          cb.route_update ~peer route
        | None -> ())
      t.conns

let withdraw_learned t ~peer prefix =
  match Hashtbl.find_opt t.by_asn (Asn.to_int peer) with
  | Some p when t.up && Prefix.Map.mem prefix p.table ->
    p.table <- Prefix.Map.remove prefix p.table;
    p.n_routes <- p.n_routes - 1;
    bmp_withdraw t p prefix;
    note_bmp_change t p;
    List.iter
      (fun conn ->
        match conn.callbacks with
        | Some cb -> cb.route_withdraw ~peer prefix
        | None -> ())
      t.conns
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Crash / restart (fault injection) *)

let is_up t = t.up

let crash t =
  if t.up then begin
    t.up <- false;
    t.crashed_at <- Some (Engine.now t.engine);
    (* The BGP process dies with its Adj-RIBs-In; upstream routes must
       be re-learned after restart. Client registrations (and the
       safety registry) live in the controller and survive. *)
    Hashtbl.iter
      (fun _ p ->
        p.table <- Prefix.Map.empty;
        p.n_routes <- 0)
      t.by_asn;
    Metrics.Counter.inc t.m.m_crashes;
    (* Every monitored session dies with the process: Peer Down per
       peer (reason 2, local system closed), then Termination. *)
    iter_peers t (fun p -> bmp_peer_down t p ~reason:2);
    bmp_emit t (Bmp.Termination { info = [ (0, "bgp process down") ] });
    match t.status_hook with Some f -> f false | None -> ()
  end

let restart t =
  if not t.up then begin
    t.up <- true;
    Metrics.Counter.inc t.m.m_restarts;
    (match t.crashed_at with
    | Some at -> Metrics.Histogram.observe t.m.m_downtime (Engine.now t.engine -. at)
    | None -> ());
    t.crashed_at <- None;
    (* The restarted process re-initiates its monitoring feed; the
       Adj-RIBs-In are empty until the testbed re-feeds them, so no
       Route Monitoring is replayed here. *)
    if Option.is_some t.bmp_sink then begin
      bmp_emit t
        (Bmp.Initiation { info = [ (1, "peering mux"); (2, t.server_name) ] })
    end;
    iter_peers t (bmp_peer_up t);
    (match t.status_hook with Some f -> f true | None -> ());
    (* Failover: re-issue every client's surviving announcements so
       Adj-RIBs-Out resynchronize without client involvement. Each
       re-export runs spanned so blast-radius accounting attributes
       the recovery traffic to the fault that caused it. *)
    List.iter
      (fun conn ->
        if not (Prefix.Map.is_empty conn.announced) then
          Metrics.Counter.inc t.m.m_failovers;
        Prefix.Map.iter
          (fun prefix (targets, sanitized) ->
            export_spanned t
              ~attrs:
                [ ("client", conn.id); ("prefix", Prefix.to_string prefix) ]
              (Export_announce
                 { client = conn.id;
                   prefix;
                   path_suffix = sanitized;
                   peers = targets
                 }))
          conn.announced)
      t.conns
  end

let learned_route_count t =
  Hashtbl.fold (fun _ p acc -> acc + p.n_routes) t.by_asn 0

let adj_rib_dump t =
  Bmp.adj_rib_dump
    (Hashtbl.fold (fun asn p acc -> (asn, p.table) :: acc) t.by_asn [])

let rib_digest t = Bmp.rib_digest (adj_rib_dump t)

type session_stats = { total_sessions : int; est_memory_bytes : int }

(* Session-state model: Quagga's struct peer plus I/O buffers is on
   the order of 64 KiB per configured session. *)
let session_memory_bytes = 64 * 1024

let session_stats t =
  let n_peers = n_peers t and n_clients = n_clients t in
  let client_sessions =
    match t.mux with
    | Per_peer_sessions -> n_clients * n_peers
    | Add_path_mux -> n_clients
  in
  let peer_sessions = n_peers in
  let total_sessions = peer_sessions + client_sessions in
  { total_sessions; est_memory_bytes = total_sessions * session_memory_bytes }
