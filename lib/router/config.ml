open Peering_net
open Peering_bgp

type neighbor_config = {
  addr : Ipv4.t;
  remote_as : Asn.t;
  route_map_in : string option;
  route_map_out : string option;
  route_map_out_line : int option;
  keepalive : int option;
  holdtime : int option;
  connect_retry_s : int option;
  timers_line : int option;
  nbr_line : int;
}

type bgp_config = {
  asn : Asn.t;
  router_id : Ipv4.t option;
  networks : Prefix.t list;
  network_lines : (Prefix.t * int) list;
  neighbors : neighbor_config list;
}

type prefix_rule = {
  pl_seq : int;
  pl_permit : bool;
  pl_prefix : Prefix.t;
  pl_ge : int option;
  pl_le : int option;
  pl_line : int;
}

type map_match =
  | M_prefix_list of string
  | M_community of Community.t
  | M_as_path_contains of Asn.t

type map_set =
  | S_local_pref of int
  | S_metric of int
  | S_community of Community.t * bool  (* additive? *)
  | S_prepend of Asn.t * int
  | S_next_hop of Ipv4.t

type map_entry = {
  rm_seq : int;
  rm_permit : bool;
  rm_line : int;
  mutable rm_matches : map_match list;
  mutable rm_sets : map_set list;
}

type t = {
  bgp : bgp_config option;
  prefix_lists : (string, prefix_rule list) Hashtbl.t;
  route_maps : (string, map_entry list) Hashtbl.t;
}

let community = Lines.token "community" Community.of_string

type context =
  | Top
  | In_bgp
  | In_route_map of map_entry

(* Lists in the builder are accumulated newest-first (cons) and
   reversed once at the end of the parse, keeping the builder O(n). *)
type builder = {
  mutable ctx : context;
  mutable b_asn : Asn.t option;
  mutable b_router_id : Ipv4.t option;
  mutable b_networks : (Prefix.t * int) list;  (* reversed *)
  mutable b_neighbors : neighbor_config list;  (* reversed *)
  b_prefix_lists : (string, prefix_rule list) Hashtbl.t;  (* reversed *)
  b_route_maps : (string, map_entry list) Hashtbl.t;  (* reversed *)
}

let update_neighbor b addr f =
  let found = ref false in
  b.b_neighbors <-
    List.map
      (fun n ->
        if Ipv4.equal n.addr addr then begin
          found := true;
          f n
        end
        else n)
      b.b_neighbors;
  if not !found then Lines.fail "neighbor not declared with remote-as"

let handle_bgp_line b lineno toks =
  match toks with
  | [ "bgp"; "router-id"; ip ] -> b.b_router_id <- Some (Lines.ipv4 ip)
  | [ "network"; pfx ] ->
    b.b_networks <- (Lines.prefix pfx, lineno) :: b.b_networks
  | [ "neighbor"; ip; "remote-as"; asn ] ->
    let addr = Lines.ipv4 ip in
    if List.exists (fun n -> Ipv4.equal n.addr addr) b.b_neighbors then
      Lines.fail "duplicate neighbor";
    b.b_neighbors <-
      { addr;
        remote_as = Lines.asn asn;
        route_map_in = None;
        route_map_out = None;
        route_map_out_line = None;
        keepalive = None;
        holdtime = None;
        connect_retry_s = None;
        timers_line = None;
        nbr_line = lineno
      }
      :: b.b_neighbors
  | [ "neighbor"; ip; "timers"; "connect"; n ] ->
    let addr = Lines.ipv4 ip in
    let v = Lines.int n in
    if v < 0 then Lines.fail "connect-retry must be non-negative";
    update_neighbor b addr (fun nb ->
        { nb with connect_retry_s = Some v; timers_line = Some lineno })
  | [ "neighbor"; ip; "timers"; k; h ] ->
    let addr = Lines.ipv4 ip in
    let k = Lines.int k and h = Lines.int h in
    if k < 0 || h < 0 then Lines.fail "timers must be non-negative";
    update_neighbor b addr (fun nb ->
        { nb with keepalive = Some k; holdtime = Some h;
          timers_line = Some lineno })
  | [ "neighbor"; ip; "route-map"; name; dir ] ->
    let addr = Lines.ipv4 ip in
    (match dir with
    | "in" ->
      update_neighbor b addr (fun n -> { n with route_map_in = Some name })
    | "out" ->
      update_neighbor b addr (fun n ->
          { n with route_map_out = Some name; route_map_out_line = Some lineno })
    | _ -> Lines.fail "route-map direction must be in|out")
  | _ -> Lines.fail "unknown statement in router bgp block"

let handle_map_line entry toks =
  match toks with
  | [ "match"; "ip"; "address"; "prefix-list"; name ] ->
    entry.rm_matches <- M_prefix_list name :: entry.rm_matches
  | [ "match"; "community"; c ] ->
    entry.rm_matches <- M_community (community c) :: entry.rm_matches
  | [ "match"; "as-path-contains"; a ] ->
    entry.rm_matches <- M_as_path_contains (Lines.asn a) :: entry.rm_matches
  | [ "set"; "local-preference"; n ] ->
    entry.rm_sets <- S_local_pref (Lines.int n) :: entry.rm_sets
  | [ "set"; "metric"; n ] ->
    entry.rm_sets <- S_metric (Lines.int n) :: entry.rm_sets
  | [ "set"; "community"; c ] ->
    entry.rm_sets <- S_community (community c, false) :: entry.rm_sets
  | [ "set"; "community"; c; "additive" ] ->
    entry.rm_sets <- S_community (community c, true) :: entry.rm_sets
  | [ "set"; "as-path"; "prepend"; a; n ] ->
    entry.rm_sets <- S_prepend (Lines.asn a, Lines.int n) :: entry.rm_sets
  | [ "set"; "next-hop"; ip ] ->
    entry.rm_sets <- S_next_hop (Lines.ipv4 ip) :: entry.rm_sets
  | _ -> Lines.fail "unknown statement in route-map block"

let handle_top_line b lineno toks =
  match toks with
  | "router" :: "bgp" :: asn :: [] ->
    if b.b_asn <> None then Lines.fail "second router bgp block";
    b.b_asn <- Some (Lines.asn asn);
    b.ctx <- In_bgp
  | "ip" :: "prefix-list" :: name :: "seq" :: seq :: action :: pfx :: rest ->
    let pl_permit =
      match action with
      | "permit" -> true
      | "deny" -> false
      | _ -> Lines.fail "prefix-list action must be permit|deny"
    in
    let rec opts ge le = function
      | [] -> (ge, le)
      | "ge" :: n :: rest -> opts (Some (Lines.int n)) le rest
      | "le" :: n :: rest -> opts ge (Some (Lines.int n)) rest
      | _ -> Lines.fail "bad prefix-list options"
    in
    let pl_ge, pl_le = opts None None rest in
    let rule =
      { pl_seq = Lines.int seq;
        pl_permit;
        pl_prefix = Lines.prefix pfx;
        pl_ge;
        pl_le;
        pl_line = lineno
      }
    in
    let existing =
      Option.value (Hashtbl.find_opt b.b_prefix_lists name) ~default:[]
    in
    Hashtbl.replace b.b_prefix_lists name (rule :: existing)
  | [ "route-map"; name; action; seq ] ->
    let rm_permit =
      match action with
      | "permit" -> true
      | "deny" -> false
      | _ -> Lines.fail "route-map action must be permit|deny"
    in
    let entry =
      { rm_seq = Lines.int seq;
        rm_permit;
        rm_line = lineno;
        rm_matches = [];
        rm_sets = []
      }
    in
    let existing =
      Option.value (Hashtbl.find_opt b.b_route_maps name) ~default:[]
    in
    if List.exists (fun e -> e.rm_seq = entry.rm_seq) existing then
      Lines.fail "duplicate route-map sequence";
    Hashtbl.replace b.b_route_maps name (entry :: existing);
    b.ctx <- In_route_map entry
  | _ -> Lines.fail "unknown top-level statement"

(* A [!] line ends the open block; an unindented line ends it too and
   is read as a top-level statement. *)
let handle_line b lineno = function
  | Lines.Separator -> b.ctx <- Top
  | Lines.Stmt { indented; toks } -> (
    match b.ctx with
    | In_bgp when indented -> handle_bgp_line b lineno toks
    | In_route_map entry when indented -> handle_map_line entry toks
    | Top | In_bgp | In_route_map _ ->
      b.ctx <- Top;
      handle_top_line b lineno toks)

(* Un-reverse every accumulated list back into source order. *)
let finish b () =
  Hashtbl.filter_map_inplace
    (fun _ rules -> Some (List.rev rules))
    b.b_prefix_lists;
  Hashtbl.filter_map_inplace
    (fun _ entries ->
      List.iter
        (fun e ->
          e.rm_matches <- List.rev e.rm_matches;
          e.rm_sets <- List.rev e.rm_sets)
        entries;
      Some (List.rev entries))
    b.b_route_maps;
  let bgp =
    Option.map
      (fun asn ->
        let network_lines = List.rev b.b_networks in
        { asn;
          router_id = b.b_router_id;
          networks = List.map fst network_lines;
          network_lines;
          neighbors = List.rev b.b_neighbors
        })
      b.b_asn
  in
  { bgp; prefix_lists = b.b_prefix_lists; route_maps = b.b_route_maps }

let parse text =
  let b =
    { ctx = Top;
      b_asn = None;
      b_router_id = None;
      b_networks = [];
      b_neighbors = [];
      b_prefix_lists = Hashtbl.create 8;
      b_route_maps = Hashtbl.create 8
    }
  in
  Lines.read (handle_line b) (finish b) text

let bgp t = t.bgp

let route_map_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.route_maps []
  |> List.sort String.compare

let prefix_list_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.prefix_lists []
  |> List.sort String.compare

let route_map t name = Hashtbl.find_opt t.route_maps name
let prefix_list t name = Hashtbl.find_opt t.prefix_lists name

let route_maps t =
  List.map (fun n -> (n, Hashtbl.find t.route_maps n)) (route_map_names t)

let prefix_lists t =
  List.map (fun n -> (n, Hashtbl.find t.prefix_lists n)) (prefix_list_names t)

let compile_cond t = function
  | M_prefix_list name -> (
    match Hashtbl.find_opt t.prefix_lists name with
    | None -> Error (Printf.sprintf "undefined prefix-list %s" name)
    | Some rules ->
      (* Quagga semantics: first matching seq decides; no match denies.
         The encoding below is exact: a permit rule becomes
         [Any [here; rest]] (match now, or fall through) and a deny
         rule becomes [All [Not here; rest]] (must not match now, and
         must match a later permit). *)
      let sorted = List.sort (fun a b -> Int.compare a.pl_seq b.pl_seq) rules in
      let to_triple r =
        (* Quagga defaults: no ge/le is an exact-length match; ge alone
           opens the window up to /32. *)
        let ge = Option.value r.pl_ge ~default:(Prefix.len r.pl_prefix) in
        let le =
          match (r.pl_le, r.pl_ge) with
          | Some l, _ -> l
          | None, Some _ -> 32
          | None, None -> Prefix.len r.pl_prefix
        in
        (r.pl_prefix, ge, le)
      in
      let rec build = function
        | [] -> Policy.Any []
        | r :: rest ->
          let here = Policy.Prefix_in [ to_triple r ] in
          if r.pl_permit then Policy.Any [ here; build rest ]
          else Policy.All [ Policy.Not here; build rest ]
      in
      Ok (build sorted))
  | M_community c -> Ok (Policy.Has_community c)
  | M_as_path_contains a -> Ok (Policy.Path_contains a)

let compile_set = function
  | S_local_pref n -> [ Policy.Set_local_pref n ]
  | S_metric n -> [ Policy.Set_med (Some n) ]
  | S_community (c, true) -> [ Policy.Add_community c ]
  | S_community (c, false) ->
    (* Non-additive set replaces the attribute outright. *)
    [ Policy.Clear_communities; Policy.Add_community c ]
  | S_prepend (a, n) -> [ Policy.Prepend (a, n) ]
  | S_next_hop ip -> [ Policy.Set_next_hop ip ]

let compile_route_map t name =
  match Hashtbl.find_opt t.route_maps name with
  | None -> Error (Printf.sprintf "undefined route-map %s" name)
  | Some entries ->
    let rec build acc = function
      | [] -> Ok (Policy.of_entries (List.rev acc))
      | e :: rest ->
        let conds =
          List.fold_left
            (fun acc m ->
              match (acc, compile_cond t m) with
              | Error _, _ -> acc
              | _, (Error _ as err) -> err
              | Ok cs, Ok c -> Ok (c :: cs))
            (Ok []) e.rm_matches
        in
        (match conds with
        | Error err -> Error err
        | Ok conds ->
          let entry =
            { Policy.seq = e.rm_seq;
              decision = (if e.rm_permit then Policy.Permit else Policy.Deny);
              conds = List.rev conds;
              actions = List.concat_map compile_set e.rm_sets
            }
          in
          build (entry :: acc) rest)
    in
    build [] entries

let instantiate engine t =
  match t.bgp with
  | None -> Error "no router bgp block"
  | Some conf ->
    let router_id =
      Option.value conf.router_id ~default:(Ipv4.of_octets 10 255 255 1)
    in
    let r = Router.create engine ~asn:conf.asn ~router_id () in
    List.iter (fun p -> Router.originate r p) conf.networks;
    Ok r

let apply_neighbor_policies t router =
  match t.bgp with
  | None -> Error "no router bgp block"
  | Some conf ->
    let rec go = function
      | [] -> Ok ()
      | (n : neighbor_config) :: rest -> (
        let apply name setter =
          match compile_route_map t name with
          | Error e -> Error e
          | Ok policy ->
            setter router n.addr policy;
            Ok ()
        in
        let r_in =
          match n.route_map_in with
          | Some name -> apply name Router.set_import_policy
          | None -> Ok ()
        in
        match r_in with
        | Error e -> Error e
        | Ok () -> (
          let r_out =
            match n.route_map_out with
            | Some name -> apply name Router.set_export_policy
            | None -> Ok ()
          in
          match r_out with Error e -> Error e | Ok () -> go rest))
    in
    go conf.neighbors
