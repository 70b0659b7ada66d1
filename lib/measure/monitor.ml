open Peering_net
module Bmp = Peering_bgp.Bmp
module Message = Peering_bgp.Message
module Route = Peering_bgp.Route
module As_path = Peering_bgp.As_path
module Attrs = Peering_bgp.Attrs
module Event = Peering_obs.Event
module Sink = Peering_obs.Sink
module Metrics = Peering_obs.Metrics

let fam_alerts = Metrics.Family.counter "measure.monitor.alerts"

(* The station's instruments, registered by the first [create]: a
   program that runs no station prints no [measure.monitor.*] rows. *)
type instruments = {
  m_msgs : Metrics.Counter.t;
  m_parse_errors : Metrics.Counter.t;
  m_feed_gap : Metrics.Histogram.t;
}

let instruments =
  lazy
    { m_msgs =
        Metrics.counter "measure.monitor.msgs";
      m_parse_errors =
        Metrics.counter "measure.monitor.parse_errors";
      m_feed_gap =
        Metrics.histogram "measure.monitor.feed_gap_s"
    }

let m () = Lazy.force instruments

(* The ingest rate's horizon, in one-second buckets of virtual time. *)
let rate_horizon = 60

type peer_state = {
  mutable p_up : bool;
  mutable p_table : Route.t Prefix.Map.t;
  mutable p_reported : int option;
  (* the source of the peer's last announce, shared by its routes while
     the header's address and BGP id stay the same *)
  mutable p_source : Route.source option;
}

type mux_state = {
  peers : (int, peer_state) Hashtbl.t;
  mutable mx_up : bool;
  (* Unconsumed feed bytes (a partial frame) are
     [pending.[p_start] .. pending.[p_end - 1]]; the rest is spare room. *)
  mutable pending : bytes;
  mutable p_start : int;
  mutable p_end : int;
  mutable mx_msgs : int;
}

type watch = {
  mutable w_origin : Asn.t option;  (* expected origin; MOAS otherwise *)
  mutable w_flaps : bool;  (* flap detector on *)
  mutable w_events : float list;  (* recent event times, newest first *)
  mutable w_reach : bool;  (* reach detector on *)
  mutable w_armed : bool;  (* reach ever hit [reach_floor] *)
}

type alert = {
  a_time : float;
  a_kind : Event.alert_kind;
  a_mux : string;
  a_prefix : Prefix.t;
  a_detail : string;
}

type t = {
  muxes : (string, mux_state) Hashtbl.t;
  watches : (Prefix.t, watch) Hashtbl.t;
  (* (mux, peer asn) -> allowed-export predicate *)
  cones : (string * int, Prefix.t -> bool) Hashtbl.t;
  mutable alerts : alert list;  (* newest first *)
  alerted : (string, unit) Hashtbl.t;  (* dedup keys *)
  mutable newest : float;  (* feed time of the last ingested message *)
  (* Bucket [s mod rate_horizon] counts the messages of virtual second
     [s]; [bucket_sec] names the second a bucket holds now. *)
  bucket_sec : int array;
  bucket_msgs : int array;
  mutable messages : int;
  mutable bytes_in : int;
  mutable parse_errors : int;
}

let create () =
  ignore (m ());
  { muxes = Hashtbl.create 8;
    watches = Hashtbl.create 8;
    cones = Hashtbl.create 16;
    alerts = [];
    alerted = Hashtbl.create 8;
    newest = 0.0;
    bucket_sec = Array.make rate_horizon min_int;
    bucket_msgs = Array.make rate_horizon 0;
    messages = 0;
    bytes_in = 0;
    parse_errors = 0
  }

let mux_state t mux =
  match Hashtbl.find_opt t.muxes mux with
  | Some m -> m
  | None ->
    let m =
      { peers = Hashtbl.create 8; mx_up = false; pending = Bytes.empty;
        p_start = 0; p_end = 0; mx_msgs = 0
      }
    in
    Hashtbl.replace t.muxes mux m;
    m

let peer_state mx asn =
  let key = Asn.to_int asn in
  match Hashtbl.find_opt mx.peers key with
  | Some p -> p
  | None ->
    let p =
      { p_up = false; p_table = Prefix.Map.empty; p_reported = None;
        p_source = None }
    in
    Hashtbl.replace mx.peers key p;
    p

(* ------------------------------------------------------------------ *)
(* Watches and alerts *)

let watch t prefix =
  match Hashtbl.find_opt t.watches prefix with
  | Some w -> w
  | None ->
    let w =
      { w_origin = None; w_flaps = false; w_events = []; w_reach = false;
        w_armed = false
      }
    in
    Hashtbl.replace t.watches prefix w;
    w

let watch_moas t prefix ~origin = (watch t prefix).w_origin <- Some origin

(* The flap detector fires at this many announce/withdraw events
   within this many virtual seconds; the reach detector when a prefix
   that this many (mux, peer) tables held falls below that. *)
let flap_limit = 6
let flap_window_s = 60.0
let reach_floor = 2

let watch_flaps t prefix = (watch t prefix).w_flaps <- true

let watch_reach t prefix = (watch t prefix).w_reach <- true

let allow_export t ~mux ~peer pred =
  Hashtbl.replace t.cones (mux, Asn.to_int peer) pred

let raise_alert t ~key ~time ~kind ~mux ~prefix ~detail =
  if not (Hashtbl.mem t.alerted key) then begin
    Hashtbl.replace t.alerted key ();
    t.alerts <-
      { a_time = time; a_kind = kind; a_mux = mux; a_prefix = prefix;
        a_detail = detail
      }
      :: t.alerts;
    Metrics.Counter.inc
      (Metrics.Family.get fam_alerts
         [ ("kind", Event.alert_kind_to_string kind) ]);
    Sink.emit ~time ~level:Event.Warn ~subsystem:"measure.monitor"
      (Event.Monitor_alert { kind; mux; prefix; detail })
  end

(* Reach of a prefix: how many (mux, peer) Adj-RIB-In mirrors hold
   it.  Only consulted for watched prefixes, so the scan is rare. *)
let reach t prefix =
  Hashtbl.fold
    (fun _ mx acc ->
      Hashtbl.fold
        (fun _ ps acc ->
          if Prefix.Map.mem prefix ps.p_table then acc + 1 else acc)
        mx.peers acc)
    t.muxes 0

let check_reach t ~time ~mux prefix w =
  if w.w_reach then begin
    let r = reach t prefix in
    if r >= reach_floor then w.w_armed <- true
    else if w.w_armed then
      raise_alert t
        ~key:(Printf.sprintf "dip|%s" (Prefix.to_string prefix))
        ~time ~kind:Event.Reach_dip ~mux ~prefix
        ~detail:(Printf.sprintf "reach %d below floor %d" r reach_floor)
  end

(* The prefix's watch, probing the table only when some watch is set:
   most stations watch nothing, and a probe hashes the prefix. *)
let watch_of t prefix =
  if Hashtbl.length t.watches = 0 then None
  else Hashtbl.find_opt t.watches prefix

let note_churn t ~time ~mux prefix = function
  | None -> ()
  | Some w ->
    if w.w_flaps then begin
      let floor_t = time -. flap_window_s in
      w.w_events <- time :: List.filter (fun e -> e > floor_t) w.w_events;
      let n = List.length w.w_events in
      if n >= flap_limit then
        raise_alert t
          ~key:(Printf.sprintf "flap|%s" (Prefix.to_string prefix))
          ~time ~kind:Event.Flap_churn ~mux ~prefix
          ~detail:
            (Printf.sprintf "%d events in %.0fs (limit %d)" n flap_window_s
               flap_limit)
    end;
    check_reach t ~time ~mux prefix w

(* ------------------------------------------------------------------ *)
(* Message processing *)

let on_announce t ~mux mx (hdr : Bmp.peer_header) attrs (path_id, prefix) =
  let time = Bmp.time hdr in
  let ps = peer_state mx hdr.Bmp.peer_asn in
  let source =
    match ps.p_source with
    | Some s as source
      when Ipv4.equal s.Route.peer_addr hdr.Bmp.peer_addr
           && Ipv4.equal s.Route.peer_router_id hdr.Bmp.peer_bgp_id ->
      source
    | _ ->
      let source =
        Some
          { Route.peer_asn = hdr.Bmp.peer_asn;
            peer_addr = hdr.Bmp.peer_addr;
            peer_router_id = hdr.Bmp.peer_bgp_id;
            ebgp = true
          }
      in
      ps.p_source <- source;
      source
  in
  let route = Route.make ?source ~path_id ~learned_at:time prefix attrs in
  ps.p_table <- Prefix.Map.add prefix route ps.p_table;
  let w = watch_of t prefix in
  (* MOAS: watched prefix announced from an unexpected origin *)
  (match w with
  | Some { w_origin = Some expect; _ } -> (
    match As_path.origin_asn attrs.Attrs.as_path with
    | Some org when not (Asn.equal org expect) ->
      raise_alert t
        ~key:(Printf.sprintf "moas|%s" (Prefix.to_string prefix))
        ~time ~kind:Event.Moas ~mux ~prefix
        ~detail:
          (Printf.sprintf "origin %s, expected %s" (Asn.to_string org)
             (Asn.to_string expect))
    | _ -> ())
  | _ -> ());
  (* out-of-cone leak: this (mux, peer) announced outside its cone;
     the (mux, peer) key is only built and hashed when a cone is set *)
  (match
     if Hashtbl.length t.cones = 0 then None
     else Hashtbl.find_opt t.cones (mux, Asn.to_int hdr.Bmp.peer_asn)
   with
  | Some pred when not (pred prefix) ->
    raise_alert t
      ~key:
        (Printf.sprintf "leak|%s|%s|%s" mux
           (Asn.to_string hdr.Bmp.peer_asn)
           (Prefix.to_string prefix))
      ~time ~kind:Event.Out_of_cone_leak ~mux ~prefix
      ~detail:
        (Printf.sprintf "announced by peer %s outside its cone"
           (Asn.to_string hdr.Bmp.peer_asn))
  | _ -> ());
  note_churn t ~time ~mux prefix w

let on_withdraw t ~mux mx (hdr : Bmp.peer_header) (_path_id, prefix) =
  let time = Bmp.time hdr in
  let ps = peer_state mx hdr.Bmp.peer_asn in
  ps.p_table <- Prefix.Map.remove prefix ps.p_table;
  note_churn t ~time ~mux prefix (watch_of t prefix)

let clear_peer t ~time ~mux ps =
  ps.p_up <- false;
  let gone = ps.p_table in
  ps.p_table <- Prefix.Map.empty;
  ps.p_reported <- None;
  (* A session loss can dip a watched prefix's reach without any
     withdraw on the wire; re-check them. *)
  if Hashtbl.length t.watches > 0 then
    Prefix.Map.iter
      (fun prefix _ ->
        match Hashtbl.find_opt t.watches prefix with
        | Some w -> check_reach t ~time ~mux prefix w
        | None -> ())
      gone

(* Count one message in the bucket of its virtual second. A bucket
   still holding an older second is recycled; a message older than the
   bucket's second lies outside every horizon that second is in. *)
let count_second t time =
  let s = int_of_float (Float.floor time) in
  let i = ((s mod rate_horizon) + rate_horizon) mod rate_horizon in
  if s > t.bucket_sec.(i) then begin
    t.bucket_sec.(i) <- s;
    t.bucket_msgs.(i) <- 0
  end;
  if s = t.bucket_sec.(i) then t.bucket_msgs.(i) <- t.bucket_msgs.(i) + 1

let process t ~mux mx msg =
  (* session-scoped messages carry no timestamp; reuse the newest *)
  let time =
    match Bmp.peer_of msg with Some hdr -> Bmp.time hdr | None -> t.newest
  in
  if t.messages > 0 then
    Metrics.Histogram.observe (m ()).m_feed_gap (time -. t.newest);
  t.newest <- time;
  count_second t time;
  t.messages <- t.messages + 1;
  mx.mx_msgs <- mx.mx_msgs + 1;
  Metrics.Counter.inc (m ()).m_msgs;
  match msg with
  | Bmp.Initiation _ -> mx.mx_up <- true
  | Bmp.Termination _ ->
    mx.mx_up <- false;
    Hashtbl.iter (fun _ ps -> clear_peer t ~time ~mux ps) mx.peers
  | Bmp.Peer_up { peer = hdr; _ } ->
    mx.mx_up <- true;
    (peer_state mx hdr.Bmp.peer_asn).p_up <- true
  | Bmp.Peer_down { peer = hdr; _ } ->
    clear_peer t ~time:(Bmp.time hdr) ~mux (peer_state mx hdr.Bmp.peer_asn)
  | Bmp.Stats_report { peer = hdr; stats } ->
    let ps = peer_state mx hdr.Bmp.peer_asn in
    List.iter
      (fun s ->
        if s.Bmp.stat_type = Bmp.stat_routes_adj_rib_in then
          ps.p_reported <- Some s.Bmp.stat_value)
      stats
  | Bmp.Route_monitoring { peer = hdr; update } ->
    List.iter (fun wd -> on_withdraw t ~mux mx hdr wd) update.Message.withdrawn;
    (match (update.Message.nlri, update.Message.attrs) with
    | [], _ -> ()
    | nlri, Some attrs ->
      List.iter (fun ann -> on_announce t ~mux mx hdr attrs ann) nlri
    | _ :: _, None ->
      (* NLRI with no attributes cannot build a route; count it as a
         semantically bad frame rather than guessing. *)
      t.parse_errors <- t.parse_errors + 1;
      Metrics.Counter.inc (m ()).m_parse_errors)

(* ------------------------------------------------------------------ *)
(* Feed reassembly *)

(* Process every whole frame among [mx]'s pending bytes. Decoding
   takes [p_end] as the end of the bytes, so a partial frame is
   Truncated and waits for more; a corrupt frame drops everything
   pending, to resync. *)
let rec drain t ~mux mx =
  if mx.p_start < mx.p_end then
    match Bmp.decode mx.pending ~pos:mx.p_start ~stop:mx.p_end with
    | Ok (msg, next) ->
      mx.p_start <- next;
      process t ~mux mx msg;
      drain t ~mux mx
    | Error Bmp.Truncated -> ()
    | Error _ ->
      t.parse_errors <- t.parse_errors + 1;
      Metrics.Counter.inc (m ()).m_parse_errors;
      mx.p_start <- mx.p_end

(* Append [data] to [mx]'s pending bytes. The buffer is compacted
   while the live bytes fill at most half of it and doubled otherwise,
   so each byte is copied O(1) times on average. *)
let buffer mx data =
  let n = Bytes.length data in
  let live = mx.p_end - mx.p_start in
  let cap = Bytes.length mx.pending in
  if mx.p_end + n > cap then begin
    let dst =
      if 2 * (live + n) <= cap then mx.pending else Bytes.create (2 * (live + n))
    in
    Bytes.blit mx.pending mx.p_start dst 0 live;
    mx.pending <- dst;
    mx.p_start <- 0;
    mx.p_end <- live
  end;
  Bytes.blit data 0 mx.pending mx.p_end n;
  mx.p_end <- mx.p_end + n

let feed t ~mux data =
  t.bytes_in <- t.bytes_in + Bytes.length data;
  let mx = mux_state t mux in
  buffer mx data;
  drain t ~mux mx;
  if mx.p_start = mx.p_end then begin
    mx.p_start <- 0;
    mx.p_end <- 0;
    (* one large push leaves no large buffer behind *)
    if Bytes.length mx.pending > 65_536 then mx.pending <- Bytes.empty
  end

(* ------------------------------------------------------------------ *)
(* Reads *)

let muxes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.muxes [] |> List.sort compare

let messages t = t.messages
let bytes_ingested t = t.bytes_in
let parse_errors t = t.parse_errors

let buffered t ~mux =
  match Hashtbl.find_opt t.muxes mux with
  | None -> 0
  | Some mx -> mx.p_end - mx.p_start

let ingest_rate t =
  let top = Array.fold_left max min_int t.bucket_sec in
  let n = ref 0 in
  Array.iteri
    (fun i s -> if s > top - rate_horizon then n := !n + t.bucket_msgs.(i))
    t.bucket_sec;
  float_of_int !n /. float_of_int rate_horizon

let mux_up t ~mux =
  match Hashtbl.find_opt t.muxes mux with
  | None -> false
  | Some mx -> mx.mx_up

let peer_up t ~mux ~peer =
  match Hashtbl.find_opt t.muxes mux with
  | None -> false
  | Some mx -> (
    match Hashtbl.find_opt mx.peers (Asn.to_int peer) with
    | None -> false
    | Some ps -> ps.p_up)

let adj_rib t ~mux ~peer =
  match Hashtbl.find_opt t.muxes mux with
  | None -> Prefix.Map.empty
  | Some mx -> (
    match Hashtbl.find_opt mx.peers (Asn.to_int peer) with
    | None -> Prefix.Map.empty
    | Some ps -> ps.p_table)

let route_count t ~mux =
  match Hashtbl.find_opt t.muxes mux with
  | None -> 0
  | Some mx ->
    Hashtbl.fold
      (fun _ ps acc -> acc + Prefix.Map.cardinal ps.p_table)
      mx.peers 0

let reported_routes t ~mux ~peer =
  match Hashtbl.find_opt t.muxes mux with
  | None -> None
  | Some mx -> (
    match Hashtbl.find_opt mx.peers (Asn.to_int peer) with
    | None -> None
    | Some ps -> ps.p_reported)

(* The feed's timestamps are already at wire precision; the shared
   dump applies [canon_time] anyway, as on the live side. *)
let adj_rib_dump t ~mux =
  match Hashtbl.find_opt t.muxes mux with
  | None -> []
  | Some mx ->
    Bmp.adj_rib_dump
      (Hashtbl.fold (fun asn ps acc -> (asn, ps.p_table) :: acc) mx.peers [])

let rib_digest t ~mux = Bmp.rib_digest (adj_rib_dump t ~mux)

let alerts t = List.rev t.alerts
