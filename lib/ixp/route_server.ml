open Peering_net
open Peering_bgp
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink
module Span = Peering_obs.Span

(* The route server's instruments, registered by the first route one
   processes: a program that links this library but passes no route
   through a route server (all but [peering_cli stats]) prints no
   [ixp.route_server.*] rows, as registering them at module
   initialisation would. *)
type instruments = {
  m_announces : Metrics.Counter.t;
  m_withdraws : Metrics.Counter.t;
  m_delivered : Metrics.Counter.t;
  m_filtered : Metrics.Counter.t;
  m_fanout : Metrics.Histogram.t;
}

let instruments =
  lazy
    { m_announces =
        Metrics.counter "ixp.route_server.announces";
      m_withdraws =
        Metrics.counter "ixp.route_server.withdraws";
      m_delivered =
        Metrics.counter "ixp.route_server.delivered";
      m_filtered =
        Metrics.counter "ixp.route_server.filtered";
      m_fanout =
        Metrics.histogram "ixp.route_server.fanout"
    }

let m () = Lazy.force instruments

(* A delivered route's key: several members may announce one prefix,
   and each member's withdraw retracts only its own route. *)
module Delivery = Map.Make (struct
  type t = Prefix.t * int (* prefix, origin member *)

  let compare (p, a) (q, b) =
    match Prefix.compare p q with 0 -> Int.compare a b | c -> c
end)

(* The server's own AS number (AMS-IX's), as whitelist communities
   carry it. *)
let rs_asn = 6777

type t = {
  mutable connected : Asn.Set.t;
  (* member -> (prefix, origin member) -> route: what each member has
     been sent and still holds *)
  delivered : (int, Route.t Delivery.t ref) Hashtbl.t;
  (* origin member -> its announced routes *)
  announced : (int, Route.t Prefix.Map.t ref) Hashtbl.t;
}

let create () =
  { connected = Asn.Set.empty;
    delivered = Hashtbl.create 64;
    announced = Hashtbl.create 64
  }

let table tbl key ~empty =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref empty in
    Hashtbl.replace tbl key r;
    r

let announced_by t m = table t.announced (Asn.to_int m) ~empty:Prefix.Map.empty
let delivered_to t m = table t.delivered (Asn.to_int m) ~empty:Delivery.empty

let connect t m = t.connected <- Asn.Set.add m t.connected

let n_members t = Asn.Set.cardinal t.connected

(* Does the announcing member's community set allow export to [target]? *)
let allows_export (r : Route.t) target =
  let cs = r.attrs.Attrs.communities in
  let tgt = Asn.to_int target land 0xFFFF in
  let blocked_all = Community.mem (Community.make 0 0) cs in
  let blocked = Community.mem (Community.make 0 tgt) cs in
  let whitelisted = Community.mem (Community.make rs_asn tgt) cs in
  if blocked then false
  else if blocked_all then whitelisted
  else true

let scrub (r : Route.t) =
  let keep c = Community.asn_part c <> 0 && Community.asn_part c <> rs_asn in
  let attrs =
    Attrs.with_communities
      (List.filter keep r.attrs.Attrs.communities)
      r.attrs
  in
  { r with Route.attrs }

let announce t ~from (route : Route.t) =
  if not (Asn.Set.mem from t.connected) then
    invalid_arg "Route_server.announce: member not connected";
  (* The route server has no clock of its own; the span leans on the
     clock Sink.start installs, and parents itself on whatever span
     carried the route here (wire UPDATE, mux export). *)
  Span.with_span "ixp.route_server.fanout"
    ~attrs:
      [ ("member", Asn.to_string from);
        ("prefix", Prefix.to_string route.Route.prefix) ]
  @@ fun () ->
  Metrics.Counter.inc (m ()).m_announces;
  let ann = announced_by t from in
  ann := Prefix.Map.add route.Route.prefix route !ann;
  let deliveries = ref [] and withdrawals = ref [] in
  let filtered = ref 0 in
  let key = (route.Route.prefix, Asn.to_int from) in
  Asn.Set.iter
    (fun m ->
      if not (Asn.equal m from) then begin
        let d = delivered_to t m in
        if allows_export route m then begin
          let out = scrub route in
          d := Delivery.add key out !d;
          deliveries := (m, out) :: !deliveries
        end
        else begin
          (* a re-announcement that now blocks [m] retracts its copy *)
          if Delivery.mem key !d then begin
            d := Delivery.remove key !d;
            withdrawals := (m, route.Route.prefix) :: !withdrawals
          end;
          incr filtered
        end
      end)
    t.connected;
  let deliveries = List.rev !deliveries in
  Metrics.Counter.add (m ()).m_delivered (List.length deliveries);
  Metrics.Counter.add (m ()).m_filtered !filtered;
  Metrics.Histogram.observe (m ()).m_fanout
    (float_of_int (List.length deliveries));
  if Sink.active () then
    Sink.emit ~subsystem:"ixp.route_server"
      (Peering_obs.Event.Route_server_pass
         { member = Asn.to_string from;
           prefix = route.Route.prefix;
           delivered = List.length deliveries;
           filtered = !filtered
         });
  (deliveries, List.rev !withdrawals)

let withdraw t ~from prefix =
  if not (Asn.Set.mem from t.connected) then
    invalid_arg "Route_server.withdraw: member not connected";
  let ann = announced_by t from in
  match Prefix.Map.find_opt prefix !ann with
  | None -> []
  | Some _route ->
    Metrics.Counter.inc (m ()).m_withdraws;
    ann := Prefix.Map.remove prefix !ann;
    let withdrawals = ref [] in
    Asn.Set.iter
      (fun m ->
        if not (Asn.equal m from) then begin
          let d = delivered_to t m in
          let key = (prefix, Asn.to_int from) in
          if Delivery.mem key !d then begin
            d := Delivery.remove key !d;
            withdrawals := (m, prefix) :: !withdrawals
          end
        end)
      t.connected;
    List.rev !withdrawals

let disconnect t m =
  if not (Asn.Set.mem m t.connected) then []
  else begin
    let ann = announced_by t m in
    let prefixes = List.map fst (Prefix.Map.bindings !ann) in
    let all =
      List.concat_map (fun p -> withdraw t ~from:m p) prefixes
    in
    t.connected <- Asn.Set.remove m t.connected;
    Hashtbl.remove t.announced (Asn.to_int m);
    Hashtbl.remove t.delivered (Asn.to_int m);
    all
  end

let routes_for t m =
  match Hashtbl.find_opt t.delivered (Asn.to_int m) with
  | None -> []
  | Some d -> List.map snd (Delivery.bindings !d)

let route_count t =
  Hashtbl.fold
    (fun _ d acc -> acc + Delivery.cardinal !d)
    t.delivered 0
