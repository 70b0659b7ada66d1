open Peering_net
open Peering_router
module Policy = Peering_bgp.Policy

let c_no_bgp = "RTR-NOBGP"
let c_rtmap_undef = "RTMAP-UNDEF"
let c_rtmap_unused = "RTMAP-UNUSED"
let c_pfxlist_undef = "PFXLIST-UNDEF"
let c_pfxlist_unused = "PFXLIST-UNUSED"
let c_pfxlist_shadow = "PFXLIST-SHADOW"
let c_pfxlist_bounds = "PFXLIST-BOUNDS"
let c_net_dup = "NET-DUP"
let c_nbr_nopolicy = "NBR-NOPOLICY"
let c_timer_degen = "TIMER-DEGEN"
let c_session_mismatch = "SESSION-MISMATCH"

let neighbors cfg =
  match Config.bgp cfg with None -> [] | Some b -> b.Config.neighbors

(* Route-maps referenced from neighbor statements, with the line of the
   referencing neighbor. *)
let referenced_route_maps cfg =
  List.concat_map
    (fun (n : Config.neighbor_config) ->
      let r dir = function
        | Some name -> [ (name, dir, n) ]
        | None -> []
      in
      r "in" n.Config.route_map_in @ r "out" n.Config.route_map_out)
    (neighbors cfg)

(* Prefix-lists referenced from route-map match clauses. *)
let referenced_prefix_lists cfg =
  List.concat_map
    (fun (map_name, entries) ->
      List.concat_map
        (fun (e : Config.map_entry) ->
          List.filter_map
            (function
              | Config.M_prefix_list pl -> Some (pl, map_name, e)
              | Config.M_community _ | Config.M_as_path_contains _ -> None)
            e.Config.rm_matches)
        entries)
    (Config.route_maps cfg)

(* ------------------------------------------------------------------ *)

let no_bgp cfg =
  match Config.bgp cfg with
  | Some _ -> []
  | None ->
    [ Diagnostic.error ~code:c_no_bgp
        ~hint:"add a 'router bgp <asn>' block"
        "configuration has no router bgp block and cannot instantiate a \
         router"
    ]

let undefined_route_maps cfg =
  List.filter_map
    (fun (name, dir, (n : Config.neighbor_config)) ->
      match Config.route_map cfg name with
      | Some _ -> None
      | None ->
        Some
          (Diagnostic.error ~code:c_rtmap_undef ~line:n.Config.nbr_line
             ~hint:(Printf.sprintf "define 'route-map %s permit <seq>'" name)
             (Printf.sprintf
                "neighbor %s references undefined route-map %s (%s)"
                (Ipv4.to_string n.Config.addr)
                name dir)))
    (referenced_route_maps cfg)

let unused_route_maps cfg =
  let used = List.map (fun (name, _, _) -> name) (referenced_route_maps cfg) in
  List.filter_map
    (fun (name, entries) ->
      if List.mem name used then None
      else
        let line =
          match entries with
          | (e : Config.map_entry) :: _ -> Some e.Config.rm_line
          | [] -> None
        in
        Some
          (Diagnostic.warning ~code:c_rtmap_unused ?line
             ~hint:
               (Printf.sprintf
                  "attach it with 'neighbor <ip> route-map %s in|out' or \
                   delete it"
                  name)
             (Printf.sprintf "route-map %s is defined but never used" name)))
    (Config.route_maps cfg)

let undefined_prefix_lists cfg =
  List.filter_map
    (fun (pl, map_name, (e : Config.map_entry)) ->
      match Config.prefix_list cfg pl with
      | Some _ -> None
      | None ->
        Some
          (Diagnostic.error ~code:c_pfxlist_undef ~line:e.Config.rm_line
             ~hint:
               (Printf.sprintf "define 'ip prefix-list %s seq 5 permit ...'"
                  pl)
             (Printf.sprintf
                "route-map %s seq %d matches undefined prefix-list %s"
                map_name e.Config.rm_seq pl)))
    (referenced_prefix_lists cfg)

let unused_prefix_lists cfg =
  let used = List.map (fun (pl, _, _) -> pl) (referenced_prefix_lists cfg) in
  List.filter_map
    (fun (name, rules) ->
      if List.mem name used then None
      else
        let line =
          match rules with
          | (r : Config.prefix_rule) :: _ -> Some r.Config.pl_line
          | [] -> None
        in
        Some
          (Diagnostic.warning ~code:c_pfxlist_unused ?line
             ~hint:
               (Printf.sprintf
                  "reference it with 'match ip address prefix-list %s' or \
                   delete it"
                  name)
             (Printf.sprintf "prefix-list %s is defined but never used" name)))
    (Config.prefix_lists cfg)

(* ------------------------------------------------------------------ *)
(* Prefix-list rule analysis. *)

let effective_bounds (r : Config.prefix_rule) =
  let len = Prefix.len r.Config.pl_prefix in
  let ge = Option.value r.Config.pl_ge ~default:len in
  let le =
    match (r.Config.pl_le, r.Config.pl_ge) with
    | Some l, _ -> l
    | None, Some _ -> 32
    | None, None -> len
  in
  (max ge len, min le 32)

let impossible_bounds cfg =
  List.concat_map
    (fun (name, rules) ->
      List.filter_map
        (fun (r : Config.prefix_rule) ->
          let lo, hi = effective_bounds r in
          if lo <= hi then None
          else
            Some
              (Diagnostic.error ~code:c_pfxlist_bounds ~line:r.Config.pl_line
                 ~hint:
                   (Printf.sprintf
                      "lengths must satisfy %d <= ge <= le <= 32 for a /%d \
                       prefix"
                      (Prefix.len r.Config.pl_prefix)
                      (Prefix.len r.Config.pl_prefix))
                 (Printf.sprintf
                    "prefix-list %s seq %d can never match: effective \
                     length window [%d, %d] is empty"
                    name r.Config.pl_seq lo hi)))
        rules)
    (Config.prefix_lists cfg)

(* Rule j is shadowed when an earlier rule i matches a superset: i's
   prefix contains j's and i's length window contains j's. The first
   match decides regardless of permit/deny, so the later rule is dead
   either way. *)
let shadowed_prefix_rules cfg =
  List.concat_map
    (fun (name, rules) ->
      let sorted =
        List.sort
          (fun (a : Config.prefix_rule) b ->
            Int.compare a.Config.pl_seq b.Config.pl_seq)
          rules
      in
      let covers (a : Config.prefix_rule) (b : Config.prefix_rule) =
        let alo, ahi = effective_bounds a and blo, bhi = effective_bounds b in
        blo <= bhi
        && Prefix.subsumes a.Config.pl_prefix b.Config.pl_prefix
        && alo <= blo && ahi >= bhi
      in
      let rec go earlier acc = function
        | [] -> List.rev acc
        | (r : Config.prefix_rule) :: rest ->
          let acc =
            match List.find_opt (fun p -> covers p r) (List.rev earlier) with
            | None -> acc
            | Some prev ->
              Diagnostic.warning ~code:c_pfxlist_shadow ~line:r.Config.pl_line
                ~hint:
                  (Printf.sprintf "delete seq %d or move it before seq %d"
                     r.Config.pl_seq prev.Config.pl_seq)
                (Printf.sprintf
                   "prefix-list %s seq %d is unreachable: seq %d already \
                    matches everything it matches"
                   name r.Config.pl_seq prev.Config.pl_seq)
              :: acc
          in
          go (r :: earlier) acc rest
      in
      go [] [] sorted)
    (Config.prefix_lists cfg)

(* ------------------------------------------------------------------ *)

let duplicate_networks cfg =
  match Config.bgp cfg with
  | None -> []
  | Some b ->
    let rec go seen acc = function
      | [] -> List.rev acc
      | (p, line) :: rest ->
        let acc =
          match List.assoc_opt (Prefix.to_string p) seen with
          | None -> acc
          | Some first_line ->
            Diagnostic.warning ~code:c_net_dup ~line
              ~hint:"remove the duplicate statement"
              (Printf.sprintf
                 "network %s already declared at line %d"
                 (Prefix.to_string p) first_line)
            :: acc
        in
        go ((Prefix.to_string p, line) :: seen) acc rest
    in
    go [] [] b.Config.network_lines

let neighbors_without_policy cfg =
  List.filter_map
    (fun (n : Config.neighbor_config) ->
      match (n.Config.route_map_in, n.Config.route_map_out) with
      | None, None ->
        Some
          (Diagnostic.warning ~code:c_nbr_nopolicy ~line:n.Config.nbr_line
             ~hint:
               "attach 'neighbor <ip> route-map <name> in' and 'out'; \
                unfiltered sessions accept and send everything"
             (Printf.sprintf
                "neighbor %s (%s) has no route-map in either direction"
                (Ipv4.to_string n.Config.addr)
                (Asn.to_string n.Config.remote_as)))
      | _ -> None)
    (neighbors cfg)

(* Degenerate BGP timers. A hold time below the keepalive interval
   expires before the first keepalive can possibly arrive, so the
   session flaps on its own schedule (hold time 0 disables the timer
   and is fine, RFC 4271 section 4.2). A zero connect-retry spins the
   FSM through Connect as fast as the event loop allows. *)
let degenerate_timers cfg =
  List.concat_map
    (fun (n : Config.neighbor_config) ->
      let line = Option.value n.Config.timers_line ~default:n.Config.nbr_line in
      let who =
        Printf.sprintf "neighbor %s (%s)"
          (Ipv4.to_string n.Config.addr)
          (Asn.to_string n.Config.remote_as)
      in
      let hold_vs_keepalive =
        match n.Config.holdtime with
        | Some h when h > 0 ->
          (* With no explicit keepalive, routers derive one as hold/3;
             only an explicit larger keepalive can contradict the hold
             time. *)
          (match n.Config.keepalive with
          | Some k when h < k ->
            [ Diagnostic.error ~code:c_timer_degen ~line
                ~hint:
                  (Printf.sprintf
                     "set the hold time to at least 3x the keepalive \
                      interval (e.g. 'timers %d %d')"
                     k (3 * k))
                (Printf.sprintf
                   "%s: hold time %ds is below the keepalive interval %ds; \
                    the session expires before the first keepalive arrives"
                   who h k)
            ]
          | Some _ | None -> [])
        | Some _ | None -> []
      in
      let zero_retry =
        match n.Config.connect_retry_s with
        | Some 0 ->
          [ Diagnostic.warning ~code:c_timer_degen ~line
              ~hint:"use a connect-retry of a few seconds so failed \
                     connects back off instead of busy-looping"
              (Printf.sprintf
                 "%s: connect-retry of 0s retries failed connects without \
                  any backoff"
                 who)
          ]
        | Some _ | None -> []
      in
      hold_vs_keepalive @ zero_retry)
    (neighbors cfg)

(* ------------------------------------------------------------------ *)
(* Cross-config session consistency. *)

let sessions configs =
  let with_bgp =
    List.filter_map
      (fun (file, cfg) ->
        Option.map (fun b -> (file, b)) (Config.bgp cfg))
      configs
  in
  let find_by_asn asn =
    List.find_opt
      (fun (_, (b : Config.bgp_config)) -> Asn.equal b.Config.asn asn)
      with_bgp
  in
  List.concat_map
    (fun (file, (b : Config.bgp_config)) ->
      List.concat_map
        (fun (n : Config.neighbor_config) ->
          match find_by_asn n.Config.remote_as with
          | None -> []  (* remote config not under analysis *)
          | Some (rfile, remote) ->
            let rname = Option.value rfile ~default:"<remote config>" in
            let reverse =
              List.find_opt
                (fun (m : Config.neighbor_config) ->
                  Asn.equal m.Config.remote_as b.Config.asn)
                remote.Config.neighbors
            in
            (match reverse with
            | None ->
              [ Diagnostic.error ~code:c_session_mismatch ?file
                  ~line:n.Config.nbr_line
                  ~hint:
                    (Printf.sprintf
                       "add 'neighbor <ip> remote-as %d' to %s"
                       (Asn.to_int b.Config.asn)
                       rname)
                  (Printf.sprintf
                     "session to %s is half-open: %s has no neighbor with \
                      remote-as %d"
                     (Asn.to_string n.Config.remote_as)
                     rname
                     (Asn.to_int b.Config.asn))
              ]
            | Some _ -> [])
            @
            (match remote.Config.router_id with
            | Some rid when not (Ipv4.equal rid n.Config.addr) ->
              [ Diagnostic.error ~code:c_session_mismatch ?file
                  ~line:n.Config.nbr_line
                  ~hint:
                    (Printf.sprintf
                       "point the neighbor statement at %s or fix %s's \
                        router-id"
                       (Ipv4.to_string rid) rname)
                  (Printf.sprintf
                     "neighbor %s (%s) does not match %s's router-id %s"
                     (Ipv4.to_string n.Config.addr)
                     (Asn.to_string n.Config.remote_as)
                     rname (Ipv4.to_string rid))
              ]
            | Some _ | None -> []))
        b.Config.neighbors)
    with_bgp
