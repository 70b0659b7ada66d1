open Peering_net
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink

let m_runs = Metrics.counter "bgp.decision.runs"

(* Wall-clock latency is inherently nondeterministic, so this histogram
   is volatile: excluded from default snapshots to keep same-seed runs
   byte-identical. It is sampled only while the recorder runs: two
   getrusage calls would cost more than the fold they time. *)
let m_latency = Metrics.histogram ~volatile:true "bgp.decision.latency_s"

let default_local_pref = 100

let local_pref (r : Route.t) =
  Option.value r.attrs.Attrs.local_pref ~default:default_local_pref

let is_local (r : Route.t) = r.source = None

let neighbor (r : Route.t) = As_path.neighbor_asn r.attrs.Attrs.as_path

let med_comparable a b =
  match (neighbor a, neighbor b) with
  | Some x, Some y -> Asn.equal x y
  | _ -> false

let med (r : Route.t) = Option.value r.attrs.Attrs.med ~default:0

let source_router_id (r : Route.t) =
  match r.source with
  | Some s -> Ipv4.to_int s.peer_router_id
  | None -> 0

let source_addr (r : Route.t) =
  match r.source with Some s -> Ipv4.to_int s.peer_addr | None -> 0

type step =
  | Local_origin
  | Local_pref
  | Path_length
  | Origin
  | Med
  | Ebgp
  | Router_id
  | Peer_addr
  | Path_id
  | Tie

let step_compare step a b =
  match step with
  | Local_origin -> Bool.compare (is_local b) (is_local a)
  | Local_pref -> Int.compare (local_pref b) (local_pref a)
  | Path_length ->
    Int.compare
      (As_path.length a.Route.attrs.Attrs.as_path)
      (As_path.length b.Route.attrs.Attrs.as_path)
  | Origin ->
    Int.compare
      (Attrs.origin_rank a.Route.attrs.Attrs.origin)
      (Attrs.origin_rank b.Route.attrs.Attrs.origin)
  | Med -> if med_comparable a b then Int.compare (med a) (med b) else 0
  | Ebgp -> Bool.compare (Route.is_ebgp b) (Route.is_ebgp a)
  | Router_id -> Int.compare (source_router_id a) (source_router_id b)
  | Peer_addr -> Int.compare (source_addr a) (source_addr b)
  | Path_id -> Int.compare a.Route.path_id b.Route.path_id
  | Tie -> 0

let steps =
  [ Local_origin; Local_pref; Path_length; Origin; Med; Ebgp; Router_id;
    Peer_addr; Path_id ]

let deciding_step a b =
  let rec go = function
    | [] -> (Tie, 0)
    | s :: rest -> (
      match step_compare s a b with 0 -> go rest | c -> (s, c))
  in
  go steps

let compare a b = snd (deciding_step a b)

let pick r rest =
  List.fold_left (fun acc c -> if compare c acc < 0 then c else acc) r rest

let best = function
  | [] -> None
  | r :: rest ->
    Metrics.Counter.inc m_runs;
    if Sink.active () then begin
      Sink.emit ~level:Peering_obs.Event.Debug ~subsystem:"bgp.decision"
        (Peering_obs.Event.Decision_run
           { prefix = r.Route.prefix; candidates = 1 + List.length rest });
      let t0 = Sys.time () in
      let winner = pick r rest in
      Metrics.Histogram.observe m_latency (Sys.time () -. t0);
      Some winner
    end
    else Some (pick r rest)

let sort l = List.stable_sort compare l
