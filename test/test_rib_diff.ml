(* Differential harness for the Adj-RIB-In.

   [Rib] keeps its candidates prefix-major, with a per-peer prefix
   index and stale flags on the candidates. The reference below keeps
   one flat association list of (peer, prefix, path-id) entries in
   arrival order and decides with [Decision.best] / [Decision.sort]
   over each prefix's entries, highest peer key first and each peer's
   paths oldest first. Seeded random sequences of announce, withdraw,
   drop_peer, mark_stale and sweep_stale run against both; after every
   step the returned changes (in order), [best], [candidates] (in
   order), the counts, [peers], [stale_count] and the decision, Loc-RIB
   and graceful-restart counters must agree.

   Every announced route carries its step number in [learned_at], which
   neither [Route.equal] nor the decision process reads. Exact ties
   across peers (same source, attributes and path-id) are therefore
   equal to the decision process but not to this harness, so a tie
   broken by the wrong peer fails it. Widen the sweep with
   RIB_DIFF_SEEDS=<n> (default 10 seeds). *)

open Peering_net
open Peering_bgp
module Metrics = Peering_obs.Metrics

let n_seeds =
  match Sys.getenv_opt "RIB_DIFF_SEEDS" with
  | None -> 10
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> invalid_arg "RIB_DIFF_SEEDS must be a positive integer")

(* ------------------------------------------------------------------ *)
(* Inputs: small pools, so ties, replacements and nesting are common *)

let peer_keys = [| "ams/3356"; "ams/174"; "ams/6939"; "sea/1299"; "peer004" |]

let prefixes =
  Array.map Prefix.of_string_exn
    [| "10.0.0.0/8"; "10.0.0.0/24"; "10.1.0.0/16"; "192.168.0.0/24";
       "0.0.0.0/0" |]

let source i =
  let ip = Ipv4.of_int (0x0A00_0000 + i) in
  Route.{ peer_asn = Asn.of_int (64_500 + i); peer_addr = ip;
          peer_router_id = ip; ebgp = i <> 2 }

let sources = [| None; Some (source 1); Some (source 2) |]

let attrs =
  let path l = As_path.of_asns (List.map Asn.of_int l) in
  let nh = Ipv4.of_int 0x0A00_0001 in
  [| Attrs.make ~as_path:(path [ 1; 2 ]) ~next_hop:nh ();
     Attrs.make ~as_path:(path [ 3; 2 ]) ~next_hop:nh ();
     Attrs.make ~as_path:(path [ 4 ]) ~local_pref:90 ~next_hop:nh ();
     Attrs.make ~as_path:(path [ 1; 5 ]) ~med:10 ~next_hop:nh () |]

type op =
  | Announce of { peer : int; prefix : int; path_id : int; attrs : int;
                  source : int }
  | Withdraw of { peer : int; prefix : int; path_id : int }
  | Drop of int
  | Mark of int
  | Sweep of int

let op_to_string = function
  | Announce { peer; prefix; path_id; attrs; source } ->
    Printf.sprintf "announce %s %s path=%d attrs=%d src=%d" peer_keys.(peer)
      (Prefix.to_string prefixes.(prefix)) path_id attrs source
  | Withdraw { peer; prefix; path_id } ->
    Printf.sprintf "withdraw %s %s path=%d" peer_keys.(peer)
      (Prefix.to_string prefixes.(prefix)) path_id
  | Drop p -> "drop_peer " ^ peer_keys.(p)
  | Mark p -> "mark_stale " ^ peer_keys.(p)
  | Sweep p -> "sweep_stale " ^ peer_keys.(p)

let gen_op =
  let open QCheck.Gen in
  let peer = int_bound (Array.length peer_keys - 1) in
  let prefix = int_bound (Array.length prefixes - 1) in
  let path_id = int_bound 2 in
  frequency
    [ ( 12,
        map
          (fun (peer, prefix, path_id, (attrs, source)) ->
            Announce { peer; prefix; path_id; attrs; source })
          (quad peer prefix path_id
             (pair (int_bound (Array.length attrs - 1))
                (int_bound (Array.length sources - 1)))) );
      (5, map3 (fun peer prefix path_id -> Withdraw { peer; prefix; path_id })
            peer prefix path_id);
      (1, map (fun p -> Drop p) peer);
      (2, map (fun p -> Mark p) peer);
      (2, map (fun p -> Sweep p) peer) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map op_to_string ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* ------------------------------------------------------------------ *)
(* The reference Adj-RIB-In *)

type entry = { e_peer : string; e_route : Route.t; mutable e_stale : bool }

type reference = {
  mutable entries : entry list;  (* arrival order, oldest first *)
  mutable loc : (Prefix.t * Route.t) list;
  mutable runs : int;  (* Decision.best calls on a non-empty set *)
  mutable loc_changes : int;
  mutable marked : int;
  mutable swept : int;
}

let ref_create () =
  { entries = []; loc = []; runs = 0; loc_changes = 0; marked = 0; swept = 0 }

let prefix_of e = e.e_route.Route.prefix

let ref_candidates r prefix =
  List.filter (fun e -> Prefix.equal (prefix_of e) prefix) r.entries
  |> List.stable_sort (fun a b -> String.compare b.e_peer a.e_peer)
  |> List.map (fun e -> e.e_route)

let ref_recompute r prefix =
  let previous = List.assoc_opt prefix r.loc in
  let cands = ref_candidates r prefix in
  if cands <> [] then r.runs <- r.runs + 1;
  let current = Decision.best cands in
  let changed =
    match (previous, current) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a b)
    | _ -> true
  in
  if not changed then None
  else begin
    r.loc_changes <- r.loc_changes + 1;
    r.loc <- List.remove_assoc prefix r.loc;
    Option.iter (fun c -> r.loc <- (prefix, c) :: r.loc) current;
    Some { Rib.prefix; previous; current }
  end

let same_path peer path_id prefix e =
  e.e_peer = peer && e.e_route.Route.path_id = path_id
  && Prefix.equal (prefix_of e) prefix

let ref_announce r ~peer (route : Route.t) =
  let prefix = route.Route.prefix in
  r.entries <-
    List.filter (fun e -> not (same_path peer route.Route.path_id prefix e))
      r.entries
    @ [ { e_peer = peer; e_route = route; e_stale = false } ];
  ref_recompute r prefix

let ref_withdraw r ~peer ~path_id prefix =
  let held e = e.e_peer = peer && Prefix.equal (prefix_of e) prefix in
  if not (List.exists held r.entries) then None
  else begin
    r.entries <-
      List.filter (fun e -> not (same_path peer path_id prefix e)) r.entries;
    ref_recompute r prefix
  end

(* Remove [peer]'s entries that satisfy [doomed], then recompute each
   prefix that lost one, in address order. *)
let ref_remove r ~peer doomed =
  let gone, kept =
    List.partition (fun e -> e.e_peer = peer && doomed e) r.entries
  in
  r.entries <- kept;
  List.sort_uniq Prefix.compare (List.map prefix_of gone)
  |> List.filter_map (ref_recompute r)

let ref_mark r ~peer =
  let mine = List.filter (fun e -> e.e_peer = peer) r.entries in
  List.iter (fun e -> e.e_stale <- true) mine;
  r.marked <- r.marked + List.length mine;
  List.length mine

let ref_stale_count r ~peer =
  List.length (List.filter (fun e -> e.e_peer = peer && e.e_stale) r.entries)

let ref_sweep r ~peer =
  r.swept <- r.swept + ref_stale_count r ~peer;
  ref_remove r ~peer (fun e -> e.e_stale)

(* ------------------------------------------------------------------ *)
(* Running both *)

let counters () =
  List.map Metrics.counter_value
    [ "bgp.decision.runs"; "bgp.rib.loc_changes"; "bgp.rib.stale_marked";
      "bgp.rib.stale_swept" ]

(* Everything observable after one step, for either side. *)
type view = {
  changes : Rib.change list;
  marked : int;  (* mark_stale's result; 0 for the other ops *)
  best : Route.t option list;  (* per pool prefix *)
  candidates : Route.t list list;  (* per pool prefix *)
  route_count : int;
  prefix_count : int;
  peers : string list;
  stale : int list;  (* per pool peer *)
  counters : int list;
      (* decision runs, Loc-RIB changes, stale marked, stale swept *)
}

let pp_route ppf r = Format.fprintf ppf "%a @%g" Route.pp r r.Route.learned_at

let pp_route_opt ppf = function
  | None -> Format.pp_print_string ppf "none"
  | Some r -> pp_route ppf r

let pp_view ppf v =
  let list pp =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp
  in
  let ints = list Format.pp_print_int in
  Format.fprintf ppf
    "@[<v>changes: @[%a@]@,marked: %d@,best: @[%a@]@,candidates: @[<v>%a@]@,\
     routes %d, prefixes %d@,peers: @[%a@]@,stale: @[%a@]@,counters: @[%a@]@]"
    (list (fun ppf (c : Rib.change) ->
       Format.fprintf ppf "%a: %a -> %a" Prefix.pp c.Rib.prefix pp_route_opt
         c.Rib.previous pp_route_opt c.Rib.current))
    v.changes v.marked (list pp_route_opt) v.best
    (list (fun ppf l -> Format.fprintf ppf "[@[%a@]]" (list pp_route) l))
    v.candidates v.route_count v.prefix_count
    (list Format.pp_print_string) v.peers ints v.stale ints v.counters

let view_t = Alcotest.testable pp_view ( = )

let rib_view rib ~changes ~marked ~counters =
  { changes;
    marked;
    best = Array.to_list (Array.map (Rib.best rib) prefixes);
    candidates = Array.to_list (Array.map (Rib.candidates rib) prefixes);
    route_count = Rib.route_count rib;
    prefix_count = Rib.prefix_count rib;
    peers = Rib.peers rib;
    stale =
      Array.to_list (Array.map (fun peer -> Rib.stale_count rib ~peer) peer_keys);
    counters
  }

let ref_view r ~changes ~marked =
  let per_prefix f = Array.to_list (Array.map f prefixes) in
  { changes;
    marked;
    best = per_prefix (fun p -> List.assoc_opt p r.loc);
    candidates = per_prefix (fun p -> Decision.sort (ref_candidates r p));
    route_count = List.length r.entries;
    prefix_count = List.length r.loc;
    peers =
      List.sort_uniq String.compare (List.map (fun e -> e.e_peer) r.entries);
    stale =
      Array.to_list
        (Array.map (fun peer -> ref_stale_count r ~peer) peer_keys);
    counters = [ r.runs; r.loc_changes; r.marked; r.swept ]
  }

(* The operations of one Adj-RIB-In, [Rib]'s or the reference's. *)
type 'a side = {
  announce : 'a -> peer:string -> Route.t -> Rib.change option;
  withdraw : 'a -> peer:string -> path_id:int -> Prefix.t -> Rib.change option;
  drop_peer : 'a -> peer:string -> Rib.change list;
  mark_stale : 'a -> peer:string -> int;
  sweep_stale : 'a -> peer:string -> Rib.change list;
}

let rib_side =
  { announce = Rib.announce;
    withdraw = (fun rib ~peer ~path_id p -> Rib.withdraw rib ~peer ~path_id p);
    drop_peer = Rib.drop_peer;
    mark_stale = Rib.mark_stale;
    sweep_stale = Rib.sweep_stale
  }

let ref_side =
  { announce = ref_announce;
    withdraw = ref_withdraw;
    drop_peer = (fun r ~peer -> ref_remove r ~peer (fun _ -> true));
    mark_stale = ref_mark;
    sweep_stale = ref_sweep
  }

(* Step [i] on one side: the changes it reports, and mark_stale's
   result (0 for the other ops). *)
let apply side x i op =
  match op with
  | Announce { peer; prefix; path_id; attrs = a; source } ->
    let route =
      Route.make ?source:sources.(source) ~path_id ~learned_at:(float_of_int i)
        prefixes.(prefix) attrs.(a)
    in
    (Option.to_list (side.announce x ~peer:peer_keys.(peer) route), 0)
  | Withdraw { peer; prefix; path_id } ->
    ( Option.to_list
        (side.withdraw x ~peer:peer_keys.(peer) ~path_id prefixes.(prefix)),
      0 )
  | Drop p -> (side.drop_peer x ~peer:peer_keys.(p), 0)
  | Mark p -> ([], side.mark_stale x ~peer:peer_keys.(p))
  | Sweep p -> (side.sweep_stale x ~peer:peer_keys.(p), 0)

(* Apply [op] (step [i]) to both and compare what each shows. The
   counters are read around the Rib call alone: the reference's own
   Decision.best calls count too. *)
let step rib r i op =
  let before = counters () in
  let changes, marked = apply rib_side rib i op in
  let counters = List.map2 ( - ) (counters ()) before in
  let got = rib_view rib ~changes ~marked ~counters in
  r.runs <- 0;
  r.loc_changes <- 0;
  r.marked <- 0;
  r.swept <- 0;
  let changes, marked = apply ref_side r i op in
  Alcotest.check view_t
    (Printf.sprintf "step %d (%s)" i (op_to_string op))
    (ref_view r ~changes ~marked) got

let run ops =
  let rib = Rib.create () and r = ref_create () in
  List.iteri (fun i op -> step rib r (i + 1) op) ops;
  true

let prop_seed seed =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~name:(Printf.sprintf "seed %d" seed) ~count:200
       arb_ops run)

(* An exact three-way tie, spelled out. The Loc-RIB keeps its entry
   while the new best is [Route.equal] to it, so the tie shows once a
   better route from a fourth peer is withdrawn: the highest peer key's
   copy takes over. *)
let test_tie_order () =
  let rib = Rib.create () in
  let announce peer a at =
    Route.make ?source:sources.(1) ~learned_at:at prefixes.(0) attrs.(a)
    |> Rib.announce rib ~peer |> ignore
  in
  let stamps = List.map (fun r -> r.Route.learned_at) in
  announce "z" 0 0.0;
  announce "b" 3 1.0;
  announce "c" 3 2.0;
  announce "a" 3 3.0;
  Alcotest.(check (list (float 0.0))) "candidates, ties highest peer key first"
    [ 0.0; 2.0; 1.0; 3.0 ] (stamps (Rib.candidates rib prefixes.(0)));
  match Rib.withdraw rib ~peer:"z" prefixes.(0) with
  | Some { Rib.current = Some r; _ } ->
    Alcotest.(check (float 0.0)) "peer c's copy takes over" 2.0
      r.Route.learned_at
  | _ -> Alcotest.fail "withdrawing the best route must change the Loc-RIB"

let () =
  Printf.printf "rib-diff: %d seeds (set RIB_DIFF_SEEDS to widen)\n%!" n_seeds;
  Alcotest.run "rib-diff"
    [ ("reference", List.init n_seeds (fun i -> prop_seed (i + 1)));
      ( "ties",
        [ Alcotest.test_case "exact cross-peer tie" `Quick test_tie_order ] )
    ]
